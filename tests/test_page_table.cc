/** @file Unit tests for the page table and frame allocator. */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mem/frame_allocator.h"
#include "mem/page_table.h"
#include "sim/logging.h"
#include "sim/random.h"
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

/** Check every observable of @p pt against the reference @p ref. */
void
expectMatchesReference(const PageTable &pt, const std::map<Vpn, Pfn> &ref)
{
    ASSERT_EQ(pt.numMapped(), ref.size());
    std::vector<std::pair<Vpn, Pfn>> walked;
    pt.forEach(
        [&walked](Vpn vpn, Pfn pfn) { walked.emplace_back(vpn, pfn); });
    // forEach visits in ascending VPN order, exactly the reference's.
    const std::vector<std::pair<Vpn, Pfn>> expected(ref.begin(), ref.end());
    EXPECT_EQ(walked, expected);
}

TEST(PageTable, MatchesReferenceModelUnderRandomOps)
{
    // VPNs that stress the leaf layout: both sides of leaf edges
    // (k * 512 - 1, k * 512), the GPU heap base, and the device
    // (2^40) and launch-generation (2^26) strides the GPU model uses.
    const Vpn heap = Vpn{1} << 20;
    std::vector<Vpn> pool;
    for (const Vpn region : {Vpn{0}, heap, heap + (Vpn{1} << 26),
                             heap + (Vpn{1} << 40),
                             heap + (Vpn{3} << 40) + (Vpn{7} << 26)}) {
        for (const Vpn k : {Vpn{1}, Vpn{2}, Vpn{9}}) {
            pool.push_back(region + k * 512 - 1);
            pool.push_back(region + k * 512);
        }
        pool.push_back(region);
        pool.push_back(region + 17);
    }
    pool.push_back(~Vpn{0}); // The very last page of the VPN space.

    for (const std::uint64_t seed : {1, 2, 3}) {
        Rng rng(seed, "test.page_table");
        PageTable pt;
        std::map<Vpn, Pfn> ref;
        Pfn next_pfn = 0;
        for (int step = 0; step < 4000; ++step) {
            const Vpn vpn = pool[rng.uniformInt(0, pool.size() - 1)];
            const bool mapped = ref.count(vpn) > 0;
            switch (rng.uniformInt(0, 3)) {
              case 0:
                if (!mapped) {
                    pt.map(vpn, next_pfn);
                    ref.emplace(vpn, next_pfn++);
                }
                break;
              case 1:
                if (mapped) {
                    EXPECT_EQ(pt.unmap(vpn), ref.at(vpn));
                    ref.erase(vpn);
                }
                break;
              case 2: {
                Pfn pfn = ~Pfn{0};
                EXPECT_EQ(pt.translate(vpn, pfn), mapped) << vpn;
                if (mapped) {
                    EXPECT_EQ(pfn, ref.at(vpn)) << vpn;
                }
                break;
              }
              default:
                EXPECT_EQ(pt.isMapped(vpn), mapped) << vpn;
                break;
            }
            if (step % 100 == 0)
                expectMatchesReference(pt, ref);
        }
        expectMatchesReference(pt, ref);
        for (const Vpn vpn : pool) {
            Pfn pfn = 0;
            EXPECT_EQ(pt.translate(vpn, pfn), ref.count(vpn) > 0) << vpn;
        }
    }
}

TEST(PageTable, UnmappingTheCachedLeafsLastPageFreesIt)
{
    // The lookup cache must not outlive the leaf it points at (a stale
    // pointer would be a use-after-free under the asan preset).
    PageTable pt;
    pt.map(1023, 5);
    Pfn pfn = 0;
    ASSERT_TRUE(pt.translate(1023, pfn)); // Caches leaf 1.
    EXPECT_EQ(pt.numLeaves(), 1u);
    EXPECT_EQ(pt.unmap(1023), 5u);
    EXPECT_EQ(pt.numLeaves(), 0u);
    EXPECT_FALSE(pt.translate(1023, pfn));
    EXPECT_FALSE(pt.isMapped(1022));
    pt.map(1022, 6);
    ASSERT_TRUE(pt.translate(1022, pfn));
    EXPECT_EQ(pfn, 6u);
    pt.clear();
    EXPECT_FALSE(pt.isMapped(1022));
    EXPECT_EQ(pt.numLeaves(), 0u);
}

TEST(PageTable, SequentialPagesShareLeaves)
{
    // 512 pages to a 4 KiB leaf: 100 000 sequential pages need
    // ceil(100000 / 512) = 196 leaves, where a per-page node layout
    // would allocate 100 000 times.
    PageTable pt;
    for (Vpn v = 0; v < 100000; ++v)
        pt.map(v, v);
    EXPECT_EQ(pt.numMapped(), 100000u);
    EXPECT_EQ(pt.numLeaves(), 196u);
}

/** A page-table payload of @p entries, in the order given. */
std::string
pageTablePayload(const std::vector<std::pair<Vpn, Pfn>> &entries)
{
    snap::Writer w;
    w.u64(entries.size());
    for (const auto &[vpn, pfn] : entries) {
        w.u64(vpn);
        w.u64(pfn);
    }
    return w.buffer();
}

/** Restore @p payload into @p target; expect a SnapshotError whose
 *  message holds @p why. */
template <typename T>
void
expectRestoreRejects(T &target, const std::string &payload,
                     const std::string &why)
{
    snap::Reader r(payload);
    snap::Io restore(r);
    try {
        snap::Access::io(restore, target);
        ADD_FAILURE() << "restore accepted the payload; expected: " << why;
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
            << e.what();
    }
}

void
expectPageTableRestoreRejects(const std::string &payload,
                              const std::string &why)
{
    PageTable pt;
    expectRestoreRejects(pt, payload, why);
}

TEST(PageTable, SaveWritesEntriesInVpnOrder)
{
    PageTable pt;
    for (const Vpn vpn : {Vpn{4096}, Vpn{7}, Vpn{511}, Vpn{512}})
        pt.map(vpn, vpn + 1);
    snap::Writer w;
    snap::Io save(w);
    snap::Access::io(save, pt);
    EXPECT_EQ(w.buffer(), pageTablePayload({{7, 8},
                                            {511, 512},
                                            {512, 513},
                                            {4096, 4097}}));
    PageTable restored;
    snap::Reader r(w.buffer());
    snap::Io restore(r);
    snap::Access::io(restore, restored);
    Pfn pfn = 0;
    ASSERT_TRUE(restored.translate(512, pfn));
    EXPECT_EQ(pfn, 513u);
    EXPECT_EQ(restored.numMapped(), 4u);
}

TEST(PageTable, RestoreRejectsRepeatedVpn)
{
    // A re-framed file passes the checksum; a repeated VPN must be a
    // SnapshotError, not map()'s double-mapping panic.
    expectPageTableRestoreRejects(pageTablePayload({{5, 1}, {5, 2}}),
                                  "vpn 5 not above its predecessor 5");
}

TEST(PageTable, RestoreRejectsDescendingVpns)
{
    expectPageTableRestoreRejects(pageTablePayload({{9, 1}, {5, 2}}),
                                  "vpn 5 not above its predecessor 9");
}

TEST(PageTable, RestoreRejectsUnencodableFrame)
{
    expectPageTableRestoreRejects(pageTablePayload({{5, ~Pfn{0}}}),
                                  "mapped frame");
}

TEST(PageTableDeath, UnencodableFramePanics)
{
    PageTable pt;
    EXPECT_DEATH(pt.map(5, ~Pfn{0}), "no slot encoding");
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

/** A frame-allocator payload in the order save writes it. */
std::string
allocatorPayload(std::uint64_t total, std::uint64_t next,
                 std::uint64_t allocated, const std::vector<Pfn> &free,
                 const std::vector<Pfn> &in_use)
{
    snap::Writer w;
    w.u64(total);
    w.u64(next);
    w.u64(allocated);
    w.u64(free.size());
    for (const Pfn pfn : free)
        w.u64(pfn);
    w.u64(in_use.size());
    for (const Pfn pfn : in_use)
        w.u64(pfn);
    return w.buffer();
}

void
expectAllocatorRestoreRejects(const std::string &payload,
                              const std::string &why)
{
    FrameAllocator target(16);
    expectRestoreRejects(target, payload, why);
}

TEST(FrameAllocator, SnapshotRoundTripsBelowTheBumpPointer)
{
    FrameAllocator fa(16);
    for (int i = 0; i < 4; ++i)
        fa.allocate();
    fa.free(1);
    snap::Writer w;
    snap::Io save(w);
    snap::Access::io(save, fa);
    // allocatorPayload mirrors the real layout, so the rejections
    // below differ from a valid payload only in what they name.
    ASSERT_EQ(w.buffer(), allocatorPayload(16, 4, 3, {1}, {0, 2, 3}));

    FrameAllocator restored(16);
    snap::Reader r(w.buffer());
    snap::Io restore(r);
    snap::Access::io(restore, restored);
    EXPECT_EQ(restored.allocatedFrames(), 3u);
    EXPECT_FALSE(restored.isAllocated(1));
    EXPECT_TRUE(restored.isAllocated(3));
    EXPECT_FALSE(restored.isAllocated(4)); // At the bump pointer.
    EXPECT_EQ(restored.allocate(), 1u);    // The free list first,
    EXPECT_EQ(restored.allocate(), 4u);    // then the bump pointer.
}

TEST(FrameAllocator, RestoreRejectsInUseFrameAtBumpPointer)
{
    // Frame 4 is not yet handed out; accepting it would let the bump
    // pointer hand it out a second time.
    expectAllocatorRestoreRejects(
        allocatorPayload(16, 4, 4, {}, {0, 1, 2, 4}),
        "in-use frame 4 out of range (size 4)");
}

TEST(FrameAllocator, RestoreRejectsFreeFrameAtBumpPointer)
{
    expectAllocatorRestoreRejects(allocatorPayload(16, 4, 3, {4}, {0, 1, 2}),
                                  "free frame 4 out of range (size 4)");
}

TEST(FrameAllocator, RestoreRejectsFrameBothFreeAndInUse)
{
    expectAllocatorRestoreRejects(
        allocatorPayload(16, 4, 4, {2}, {0, 1, 2, 3}),
        "free frame 2 is in use or listed twice");
    // A frame free-listed twice would be handed out twice.
    expectAllocatorRestoreRejects(
        allocatorPayload(16, 4, 2, {3, 3}, {0, 1}),
        "free frame 3 is in use or listed twice");
}

TEST(FrameAllocator, RestoreRejectsAllocatedCountMismatch)
{
    expectAllocatorRestoreRejects(
        allocatorPayload(16, 4, 3, {}, {0, 1, 2, 3}),
        "3 frames allocated but 4 in use");
    expectAllocatorRestoreRejects(
        allocatorPayload(16, 4, 4, {3}, {0, 1, 2}),
        "4 frames allocated but 3 in use");
    // A repeated in-use frame does not count twice.
    expectAllocatorRestoreRejects(
        allocatorPayload(16, 4, 4, {3}, {0, 1, 2, 2}),
        "in-use frame 2 listed twice");
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
