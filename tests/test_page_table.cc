/** @file Unit tests for the page table and frame allocator. */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "mem/frame_allocator.h"
#include "mem/page_table.h"
#include "sim/logging.h"
#include "snap/access.h"

namespace hiss {
namespace {

TEST(PageTable, MapTranslateUnmap)
{
    PageTable pt;
    EXPECT_FALSE(pt.isMapped(10));
    pt.map(10, 77);
    EXPECT_TRUE(pt.isMapped(10));
    Pfn pfn = 0;
    EXPECT_TRUE(pt.translate(10, pfn));
    EXPECT_EQ(pfn, 77u);
    EXPECT_EQ(pt.unmap(10), 77u);
    EXPECT_FALSE(pt.isMapped(10));
    EXPECT_FALSE(pt.translate(10, pfn));
}

TEST(PageTable, NumMappedAndClear)
{
    PageTable pt;
    for (Vpn v = 0; v < 100; ++v)
        pt.map(v, v + 1000);
    EXPECT_EQ(pt.numMapped(), 100u);
    pt.clear();
    EXPECT_EQ(pt.numMapped(), 0u);
}

TEST(PageTable, VpnOfShiftsByPageSize)
{
    EXPECT_EQ(vpnOf(0), 0u);
    EXPECT_EQ(vpnOf(4095), 0u);
    EXPECT_EQ(vpnOf(4096), 1u);
    EXPECT_EQ(vpnOf(0x12345678), 0x12345678ull >> 12);
}

TEST(PageTableDeath, DoubleMapPanics)
{
    PageTable pt;
    pt.map(5, 1);
    EXPECT_DEATH(pt.map(5, 2), "double-mapping");
}

TEST(PageTableDeath, UnmapAbsentPanics)
{
    PageTable pt;
    EXPECT_DEATH(pt.unmap(5), "absent");
}

TEST(FrameAllocator, AllocatesDistinctFrames)
{
    FrameAllocator fa(16);
    std::set<Pfn> seen;
    for (int i = 0; i < 16; ++i)
        EXPECT_TRUE(seen.insert(fa.allocate()).second);
    EXPECT_EQ(fa.allocatedFrames(), 16u);
    EXPECT_EQ(fa.freeFrames(), 0u);
}

TEST(FrameAllocator, ExhaustionIsFatal)
{
    FrameAllocator fa(2);
    fa.allocate();
    fa.allocate();
    EXPECT_THROW(fa.allocate(), FatalError);
}

TEST(FrameAllocator, FreeEnablesReuse)
{
    FrameAllocator fa(2);
    const Pfn a = fa.allocate();
    fa.allocate();
    fa.free(a);
    EXPECT_EQ(fa.freeFrames(), 1u);
    const Pfn c = fa.allocate();
    EXPECT_EQ(c, a); // The freelist hands back the freed frame.
}

TEST(FrameAllocator, ZeroFramesRejected)
{
    EXPECT_THROW(FrameAllocator(0), FatalError);
}

TEST(FrameAllocator, RestoreRejectsFrameOutsidePool)
{
    FrameAllocator fa(16);
    fa.allocate();
    snap::Writer w;
    snap::Io save(w);
    snap::Access::io(save, fa);
    std::string payload = w.buffer();
    // The payload ends with the one in-use frame number; point it far
    // past the 16-frame pool (a re-framed file passes the checksum).
    const std::uint64_t pfn = std::uint64_t{1} << 30;
    for (std::size_t i = 0; i < 8; ++i)
        payload[payload.size() - 8 + i] =
            static_cast<char>((pfn >> (i * 8)) & 0xffU);
    FrameAllocator target(16);
    snap::Reader r(payload);
    snap::Io restore(r);
    EXPECT_THROW(snap::Access::io(restore, target), snap::SnapshotError);
}

TEST(FrameAllocatorDeath, DoubleFreePanics)
{
    FrameAllocator fa(4);
    const Pfn a = fa.allocate();
    fa.free(a);
    EXPECT_DEATH(fa.free(a), "bad free");
}

TEST(FrameAllocatorDeath, FreeOutOfRangePanics)
{
    FrameAllocator fa(4);
    EXPECT_DEATH(fa.free(100), "bad free");
}

} // namespace
} // namespace hiss
