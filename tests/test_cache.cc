/** @file Unit and property tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "mem/cache.h"
#include "sim/logging.h"
#include "sim/random.h"
#include "snap/access.h"

namespace hiss {
namespace {

/** The cache's full serialized state (tags, stamps, counters). The
 *  walk takes its object by reference, so it saves a copy. */
std::string
savedState(Cache cache)
{
    snap::Writer w;
    snap::Io io(w);
    snap::Access::io(io, cache);
    return w.buffer();
}

TEST(Cache, GeometryValidation)
{
    EXPECT_THROW(Cache(CacheParams{16 * 1024, 4, 0}), FatalError);
    EXPECT_THROW(Cache(CacheParams{16 * 1024, 4, 48}), FatalError);
    EXPECT_THROW(Cache(CacheParams{16 * 1024, 0, 64}), FatalError);
    EXPECT_THROW(Cache(CacheParams{1000, 4, 64}), FatalError);
    // 3-set cache: not a power of two.
    EXPECT_THROW(Cache(CacheParams{3 * 64 * 2, 2, 64}), FatalError);
}

TEST(Cache, SetCountMatchesGeometry)
{
    Cache cache(CacheParams{16 * 1024, 4, 64});
    EXPECT_EQ(cache.numSets(), 64u);
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(CacheParams{1024, 2, 64});
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1008)); // Same line.
    EXPECT_EQ(cache.accesses(), 3u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, ContainsHasNoSideEffects)
{
    Cache cache(CacheParams{1024, 2, 64});
    EXPECT_FALSE(cache.contains(0x40));
    cache.access(0x40);
    const std::uint64_t accesses = cache.accesses();
    EXPECT_TRUE(cache.contains(0x40));
    EXPECT_EQ(cache.accesses(), accesses);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // One set, 2 ways: 1024 B / (64 B * 2 ways) = 8 sets; use
    // addresses mapping to set 0: multiples of 8*64 = 512.
    Cache cache(CacheParams{1024, 2, 64});
    const Addr a = 0 * 512;
    const Addr b = 1 * 512;
    const Addr c = 2 * 512;
    cache.access(a);
    cache.access(b);
    cache.access(a);       // a is now MRU.
    cache.access(c);       // Evicts b (LRU).
    EXPECT_TRUE(cache.contains(a));
    EXPECT_FALSE(cache.contains(b));
    EXPECT_TRUE(cache.contains(c));
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache cache(CacheParams{1024, 2, 64});
    for (Addr a = 0; a < 1024; a += 64)
        cache.access(a);
    cache.flush();
    EXPECT_EQ(cache.flushes(), 1u);
    for (Addr a = 0; a < 1024; a += 64)
        EXPECT_FALSE(cache.contains(a));
}

TEST(Cache, ResetCountersKeepsContents)
{
    Cache cache(CacheParams{1024, 2, 64});
    cache.access(0x80);
    cache.resetCounters();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_TRUE(cache.contains(0x80));
}

TEST(Cache, ResetCountersAlsoClearsFlushCount)
{
    Cache cache(CacheParams{1024, 2, 64});
    cache.access(0x80);
    cache.flush();
    cache.flush();
    EXPECT_EQ(cache.flushes(), 2u);
    cache.resetCounters();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.flushes(), 0u);
}

TEST(Cache, BatchReturnsMissCountAndPerAccessHits)
{
    Cache cache(CacheParams{1024, 2, 64});
    // Two distinct lines, each touched twice: 2 misses, 2 hits.
    const Addr addrs[] = {0x0, 0x40, 0x0, 0x48};
    std::uint8_t hits[4] = {9, 9, 9, 9};
    EXPECT_EQ(cache.accessBatch(addrs, 4, hits), 2u);
    EXPECT_EQ(hits[0], 0u);
    EXPECT_EQ(hits[1], 0u);
    EXPECT_EQ(hits[2], 1u);
    EXPECT_EQ(hits[3], 1u); // Same line as 0x40.
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, BatchWithoutHitsOutMatchesCounters)
{
    Cache cache(CacheParams{1024, 2, 64});
    const Addr addrs[] = {0x0, 0x0, 0x200, 0x0};
    EXPECT_EQ(cache.accessBatch(addrs, 4), 2u);
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.accessBatch(addrs, 0), 0u); // Empty batch is a no-op.
    EXPECT_EQ(cache.accesses(), 4u);
}

TEST(Cache, BatchMatchesScalarStateHash)
{
    Cache batched(CacheParams{4 * 1024, 4, 64});
    Cache scalar(CacheParams{4 * 1024, 4, 64});
    Rng rng(7);
    std::vector<Addr> addrs(512);
    for (Addr &a : addrs)
        a = rng.uniformInt(0, 255) * 64;
    std::uint64_t hits = 0;
    for (const Addr a : addrs)
        hits += static_cast<std::uint64_t>(scalar.access(a));
    EXPECT_EQ(batched.accessBatch(addrs.data(), addrs.size()),
              addrs.size() - hits);
    EXPECT_EQ(savedState(batched), savedState(scalar));
    EXPECT_EQ(batched.misses(), scalar.misses());
}

TEST(Cache, MissRateComputation)
{
    Cache cache(CacheParams{1024, 2, 64});
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.0);
    cache.access(0x0);  // miss
    cache.access(0x0);  // hit
    cache.access(0x40); // miss
    cache.access(0x40); // hit
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.5);
}

TEST(Cache, WorkingSetFittingInCacheEventuallyAllHits)
{
    Cache cache(CacheParams{16 * 1024, 4, 64});
    // Touch 8 KiB twice; second pass must be all hits.
    for (Addr a = 0; a < 8 * 1024; a += 64)
        cache.access(a);
    cache.resetCounters();
    for (Addr a = 0; a < 8 * 1024; a += 64)
        EXPECT_TRUE(cache.access(a));
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(Cache, WorkingSetLargerThanCacheKeepsMissing)
{
    Cache cache(CacheParams{4 * 1024, 4, 64});
    // Stream 64 KiB repeatedly: with LRU and a cyclic pattern every
    // access misses after warmup.
    for (int pass = 0; pass < 3; ++pass)
        for (Addr a = 0; a < 64 * 1024; a += 64)
            cache.access(a);
    EXPECT_GT(cache.missRate(), 0.9);
}

/** Property sweep across geometries. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CacheGeometry, InvariantsHoldUnderRandomAccess)
{
    const auto [size_kib, assoc, line] = GetParam();
    Cache cache(CacheParams{static_cast<std::uint32_t>(size_kib * 1024),
                            static_cast<std::uint32_t>(assoc),
                            static_cast<std::uint32_t>(line)});
    Rng rng(static_cast<std::uint64_t>(size_kib * 1000 + assoc));
    const std::uint64_t lines_in_cache =
        static_cast<std::uint64_t>(size_kib) * 1024 / line;

    std::uint64_t hits = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr addr =
            rng.uniformInt(0, 4 * lines_in_cache - 1) * line;
        if (cache.access(addr))
            ++hits;
        // An address just accessed must be resident.
        ASSERT_TRUE(cache.contains(addr));
    }
    // Counters are consistent.
    EXPECT_EQ(cache.accesses(), 20000u);
    EXPECT_EQ(cache.misses() + hits, 20000u);
    // A uniform working set 4x the cache must both hit and miss.
    EXPECT_GT(cache.misses(), 0u);
    EXPECT_GT(hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(4, 1, 64),
                      std::make_tuple(16, 4, 64),
                      std::make_tuple(16, 8, 64),
                      std::make_tuple(32, 2, 128),
                      std::make_tuple(8, 16, 32)));

} // namespace
} // namespace hiss
