/**
 * @file
 * Property tests pinning the batched-substrate determinism contract:
 * for any profile and seed, the batched pipeline (fill + accessBatch /
 * predictBatch) must be observably identical — access by access, draw
 * by draw — to the scalar next()/access()/predictAndUpdate() loops it
 * replaced, and must leave the structures in bit-identical final
 * state (docs/TESTING.md, "Batched substrate").
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/address_stream.h"
#include "mem/branch_predictor.h"
#include "mem/cache.h"
#include "sim/random.h"

namespace hiss {
namespace {

/** Draw a randomized but valid memory locality profile. */
MemoryProfile
randomMemoryProfile(Rng &rng)
{
    MemoryProfile p;
    p.hot_set_bytes = rng.uniformInt(1, 16) * 1024;
    p.working_set_bytes =
        rng.uniformInt(p.hot_set_bytes / 1024, 1024) * 1024;
    p.hot_fraction = rng.uniformReal(0.0, 1.0);
    p.stride_fraction = rng.uniformReal(0.0, 1.0);
    return p;
}

/** Draw a randomized but valid branch profile. */
BranchProfile
randomBranchProfile(Rng &rng)
{
    BranchProfile p;
    p.static_branches =
        static_cast<std::uint32_t>(rng.uniformInt(1, 256));
    p.bias_min = rng.uniformReal(0.3, 0.7);
    p.bias_max = rng.uniformReal(p.bias_min, 1.0);
    p.pattern_noise = rng.uniformReal(0.0, 0.3);
    return p;
}

/** Draw a randomized but valid cache geometry. */
CacheParams
randomCacheParams(Rng &rng)
{
    static const CacheParams kChoices[] = {
        {4 * 1024, 1, 64},  {8 * 1024, 2, 64},  {16 * 1024, 4, 64},
        {16 * 1024, 8, 32}, {32 * 1024, 4, 128}, {32 * 1024, 8, 64},
    };
    return kChoices[rng.uniformInt(0, 5)];
}

/** Pin the process-wide probe kernel for one scope, then restore the
 *  CPUID-selected best (tests must not leak a forced kernel). */
class ScopedKernel
{
  public:
    explicit ScopedKernel(CacheKernel kernel)
    {
        EXPECT_TRUE(Cache::setKernel(kernel));
    }
    ~ScopedKernel() { Cache::setKernel(Cache::bestKernel()); }
};

/**
 * fill(n) must produce exactly the values of n next() calls, for any
 * split of n into sub-batches (a fill is resumable mid-sequence).
 */
TEST(SubstrateBatch, AddressFillMatchesNextForAnyProfile)
{
    Rng meta(0xA11CE);
    for (int trial = 0; trial < 40; ++trial) {
        const MemoryProfile profile = randomMemoryProfile(meta);
        const std::uint64_t seed = meta.next();
        const Addr base = meta.uniformInt(0, 15) << 28;
        AddressStream scalar(profile, base, seed);
        AddressStream batched(profile, base, seed);

        std::vector<Addr> expect(257);
        for (Addr &a : expect)
            a = scalar.next();

        std::vector<Addr> got(expect.size());
        // Uneven sub-batches, including size 1 and a big tail.
        std::size_t off = 0;
        for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                        std::size_t{96},
                                        expect.size() - 104}) {
            batched.fill(got.data() + off, chunk);
            off += chunk;
        }
        ASSERT_EQ(off, expect.size());
        ASSERT_EQ(got, expect) << "profile trial " << trial;
    }
}

TEST(SubstrateBatch, BranchFillMatchesNextForAnyProfile)
{
    Rng meta(0xB0B);
    for (int trial = 0; trial < 40; ++trial) {
        const BranchProfile profile = randomBranchProfile(meta);
        const std::uint64_t seed = meta.next();
        BranchStream scalar(profile, 0x40000, seed);
        BranchStream batched(profile, 0x40000, seed);

        std::vector<BranchStream::Outcome> expect(129);
        for (auto &o : expect)
            o = scalar.next();

        std::vector<BranchStream::Outcome> got(expect.size());
        std::size_t off = 0;
        for (const std::size_t chunk :
             {std::size_t{1}, std::size_t{48}, expect.size() - 49}) {
            batched.fill(got.data() + off, chunk);
            off += chunk;
        }
        ASSERT_EQ(off, expect.size());
        for (std::size_t i = 0; i < expect.size(); ++i) {
            ASSERT_EQ(got[i].pc, expect[i].pc) << "trial " << trial;
            ASSERT_EQ(got[i].taken, expect[i].taken) << "trial " << trial;
        }
    }
}

/**
 * Whole-pipeline equivalence: stream -> cache and stream -> predictor
 * through the batch API must reproduce the scalar path's per-access
 * hit/correct sequence, counters, and final structural state.
 */
TEST(SubstrateBatch, CachePipelineEquivalence)
{
    Rng meta(0xCAFE);
    for (int trial = 0; trial < 25; ++trial) {
        const MemoryProfile profile = randomMemoryProfile(meta);
        const CacheParams geom = randomCacheParams(meta);
        const std::uint64_t seed = meta.next();
        const std::size_t n = meta.uniformInt(1, 512);

        AddressStream sstream(profile, 0x10000000, seed);
        Cache scalar(geom);
        std::vector<std::uint8_t> scalar_hits(n);
        for (std::size_t i = 0; i < n; ++i)
            scalar_hits[i] =
                static_cast<std::uint8_t>(scalar.access(sstream.next()));

        AddressStream bstream(profile, 0x10000000, seed);
        Cache batched(geom);
        std::vector<Addr> buf(n);
        bstream.fill(buf.data(), n);
        std::vector<std::uint8_t> batch_hits(n);
        const std::uint64_t misses =
            batched.accessBatch(buf.data(), n, batch_hits.data());

        ASSERT_EQ(batch_hits, scalar_hits) << "trial " << trial;
        ASSERT_EQ(misses, scalar.misses()) << "trial " << trial;
        ASSERT_EQ(batched.accesses(), scalar.accesses());
        ASSERT_EQ(batched.misses(), scalar.misses());
        ASSERT_EQ(batched.stateHash(), scalar.stateHash())
            << "trial " << trial;
    }
}

TEST(SubstrateBatch, PredictorPipelineEquivalence)
{
    Rng meta(0xDEED);
    for (int trial = 0; trial < 25; ++trial) {
        const BranchProfile profile = randomBranchProfile(meta);
        const BranchPredictorParams geom{
            static_cast<std::uint32_t>(meta.uniformInt(4, 14)),
            static_cast<std::uint32_t>(meta.uniformInt(1, 16))};
        const std::uint64_t seed = meta.next();
        const std::size_t n = meta.uniformInt(1, 512);

        BranchStream sstream(profile, 0x40000, seed);
        BranchPredictor scalar(geom);
        std::vector<std::uint8_t> scalar_correct(n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto out = sstream.next();
            scalar_correct[i] = static_cast<std::uint8_t>(
                scalar.predictAndUpdate(out.pc, out.taken));
        }

        BranchStream bstream(profile, 0x40000, seed);
        BranchPredictor batched(geom);
        std::vector<BranchStream::Outcome> buf(n);
        bstream.fill(buf.data(), n);
        std::vector<std::uint8_t> batch_correct(n);
        const std::uint64_t mispredicts =
            batched.predictBatch(buf.data(), n, batch_correct.data());

        ASSERT_EQ(batch_correct, scalar_correct) << "trial " << trial;
        ASSERT_EQ(mispredicts, scalar.mispredicts()) << "trial " << trial;
        ASSERT_EQ(batched.lookups(), scalar.lookups());
        ASSERT_EQ(batched.stateHash(), scalar.stateHash())
            << "trial " << trial;
    }
}

/**
 * Interleaving scalar and batch calls on the *same* structures must
 * behave as one continuous access sequence — the core mixes both
 * (beginRunBurst batches, invariant checks and tests go scalar).
 */
TEST(SubstrateBatch, MixedScalarAndBatchCallsCompose)
{
    const CacheParams geom{16 * 1024, 4, 64};
    Cache mixed(geom);
    Cache scalar(geom);
    AddressStream sa(MemoryProfile{}, 0x10000000, 99);
    AddressStream sb(MemoryProfile{}, 0x10000000, 99);

    std::vector<Addr> buf(64);
    for (int round = 0; round < 8; ++round) {
        // Scalar reference: 64 + 3 single accesses.
        for (std::size_t i = 0; i < buf.size() + 3; ++i)
            scalar.access(sa.next());
        // Mixed: one batch then 3 singles, same draws.
        sb.fill(buf.data(), buf.size());
        mixed.accessBatch(buf.data(), buf.size());
        for (int i = 0; i < 3; ++i)
            mixed.access(sb.next());
    }
    EXPECT_EQ(mixed.stateHash(), scalar.stateHash());
    EXPECT_EQ(mixed.misses(), scalar.misses());
    EXPECT_EQ(mixed.accesses(), scalar.accesses());
}

/**
 * Every SIMD probe kernel the host supports must be bit-identical to
 * the portable kernel: same per-access hit bitmap, same miss count,
 * same final structural state, across geometries (including the
 * 8-way shapes the vector paths special-case).
 */
TEST(SubstrateBatch, SimdKernelMatchesPortable)
{
    static const CacheParams kGeoms[] = {
        {4 * 1024, 1, 64},  {8 * 1024, 2, 64},  {16 * 1024, 4, 64},
        {16 * 1024, 8, 32}, {32 * 1024, 4, 128}, {32 * 1024, 8, 64},
        {8 * 1024, 16, 64}, // generic-loop fallback inside SIMD TUs
    };
    const CacheKernel kernel = CacheKernel::Avx2;
    if (!Cache::kernelSupported(kernel)) {
        GTEST_LOG_(INFO) << "host lacks " << Cache::kernelName(kernel)
                         << "; skipping";
        return;
    }
    Rng meta(0x51D);
    for (const CacheParams &geom : kGeoms) {
        const MemoryProfile profile = randomMemoryProfile(meta);
        const std::uint64_t seed = meta.next();
        const std::size_t n = meta.uniformInt(64, 768);
        AddressStream stream(profile, 0x10000000, seed);
        std::vector<Addr> buf(n);
        stream.fill(buf.data(), n);

        Cache portable(geom);
        std::vector<std::uint8_t> portable_hits(n);
        std::uint64_t portable_misses = 0;
        {
            ScopedKernel pin(CacheKernel::Portable);
            portable_misses = portable.accessBatch(
                buf.data(), n, portable_hits.data());
        }

        Cache vectored(geom);
        std::vector<std::uint8_t> vector_hits(n);
        std::uint64_t vector_misses = 0;
        {
            ScopedKernel pin(kernel);
            vector_misses = vectored.accessBatch(
                buf.data(), n, vector_hits.data());
        }

        EXPECT_EQ(vector_hits, portable_hits)
            << Cache::kernelName(kernel) << " assoc " << geom.assoc;
        EXPECT_EQ(vector_misses, portable_misses)
            << Cache::kernelName(kernel) << " assoc " << geom.assoc;
        EXPECT_EQ(vectored.stateHash(), portable.stateHash())
            << Cache::kernelName(kernel) << " assoc " << geom.assoc;
    }
}

TEST(SubstrateBatch, KernelSelectionApi)
{
    const CacheKernel best = Cache::bestKernel();
    EXPECT_TRUE(Cache::kernelSupported(best));
    // Portable is always available and selectable.
    EXPECT_TRUE(Cache::kernelSupported(CacheKernel::Portable));
    {
        ScopedKernel pin(CacheKernel::Portable);
        EXPECT_EQ(Cache::activeKernel(), CacheKernel::Portable);
    }
    EXPECT_EQ(Cache::activeKernel(), best);
    // An unsupported kernel is rejected without changing the active
    // one (on non-SIMD builds the AVX2 tier is unsupported).
    if (!Cache::kernelSupported(CacheKernel::Avx2)) {
        EXPECT_FALSE(Cache::setKernel(CacheKernel::Avx2));
        EXPECT_EQ(Cache::activeKernel(), best);
    }
}

} // namespace
} // namespace hiss
