/**
 * @file
 * Property tests pinning the batched-substrate determinism contract:
 * for any profile and seed, the batched pipeline (fill + accessBatch /
 * predictBatch) must be observably identical — access by access, draw
 * by draw — to the scalar next()/access()/predictAndUpdate() loops,
 * and to the reference models below, and must leave the structures in
 * bit-identical final state (docs/TESTING.md, "Batched substrate").
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/address_stream.h"
#include "mem/branch_predictor.h"
#include "mem/cache.h"
#include "sim/random.h"
#include "snap/access.h"
#include "snap/snap.h"

namespace hiss {
namespace {

// ---------------------------------------------------------------------
// Reference models. The scalar entry points are one-element wrappers
// over the batch loops, so scalar-vs-batch tests compare each loop
// with itself. These models are literal copies of the original loops
// (the victim scan, the if/else counter update, the withProbability /
// uniformInt draw order). They share no code with the kernels and
// draw only through Rng::next(), so a rewrite of a kernel that changes
// any draw, victim or counter transition fails against them.
// ---------------------------------------------------------------------

/** Rng::uniformInt's rejection sampler, counting rejected draws. */
std::uint64_t
refUniformInt(Rng &rng, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t &rejections)
{
    const std::uint64_t range = hi - lo;
    if (range == ~std::uint64_t{0})
        return rng.next();
    const std::uint64_t span = range + 1;
    const std::uint64_t limit =
        ~std::uint64_t{0} - (~std::uint64_t{0} % span);
    std::uint64_t draw = rng.next();
    while (draw >= limit) {
        ++rejections;
        draw = rng.next();
    }
    return lo + draw % span;
}

double
refUniformReal(Rng &rng)
{
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

bool
refWithProbability(Rng &rng, double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return refUniformReal(rng) < p;
}

/** The serialized form of a snapshot-capable object's state. */
template <class T>
std::string
savedState(const T &object)
{
    snap::Writer w;
    snap::Access::save(w, object);
    return w.buffer();
}

struct RefAddressStream
{
    RefAddressStream(const MemoryProfile &p, Addr b, std::uint64_t seed)
        : profile(p), base(b), rng(seed), cursor(b)
    {
    }

    Addr
    next()
    {
        constexpr Addr line = 64;
        const std::uint64_t hot_lines = profile.hot_set_bytes / line;
        const std::uint64_t cold_lines = profile.working_set_bytes / line;
        if (profile.hot_set_bytes > 0
            && refWithProbability(rng, profile.hot_fraction)) {
            const std::uint64_t pick = hot_lines <= 1
                ? 0
                : refUniformInt(rng, 0, hot_lines - 1, rejections);
            return base + pick * line;
        }
        if (refWithProbability(rng, profile.stride_fraction)) {
            cursor += line;
            if (cursor >= base + profile.working_set_bytes)
                cursor = base;
            return cursor;
        }
        const std::uint64_t pick = cold_lines <= 1
            ? 0
            : refUniformInt(rng, 0, cold_lines - 1, rejections);
        return base + pick * line;
    }

    /** AddressStream's serialized state: generator, then cursor. */
    std::string
    state() const
    {
        snap::Writer w;
        snap::Access::save(w, rng);
        w.u64(cursor);
        return w.buffer();
    }

    MemoryProfile profile;
    Addr base;
    Rng rng;
    Addr cursor;
    std::uint64_t rejections = 0;
};

struct RefBranchStream
{
    RefBranchStream(const BranchProfile &p, Addr pc_b, std::uint64_t seed)
        : profile(p), pc_base(pc_b), rng(seed)
    {
        for (std::uint32_t i = 0; i < p.static_branches; ++i)
            biases.push_back(p.bias_min
                             + (p.bias_max - p.bias_min)
                                 * refUniformReal(rng));
    }

    BranchOutcome
    next()
    {
        const auto site = static_cast<std::uint32_t>(
            refUniformInt(rng, 0, biases.size() - 1, rejections));
        const Addr pc = pc_base + static_cast<Addr>(site) * 16;
        bool taken;
        if (refWithProbability(rng, profile.pattern_noise))
            taken = refWithProbability(rng, 0.5);
        else
            taken = refWithProbability(rng, biases[site]);
        return {pc, taken};
    }

    BranchProfile profile;
    Addr pc_base;
    Rng rng;
    std::vector<double> biases;
    std::uint64_t rejections = 0;
};

/** True-LRU cache with the original miss-path victim scan. */
struct RefCache
{
    explicit RefCache(const CacheParams &p)
        : assoc(p.assoc), sets(p.size_bytes / (p.line_bytes * p.assoc)),
          tags(static_cast<std::size_t>(sets) * assoc, 0),
          lru(tags.size(), 0)
    {
        while ((Addr{1} << shift) < p.line_bytes)
            ++shift;
    }

    bool
    access(Addr addr)
    {
        const Addr code = (addr >> shift) + 1;
        const std::size_t base = ((addr >> shift) & (sets - 1)) * assoc;
        ++accesses;
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (tags[base + w] == code) {
                lru[base + w] = ++clock;
                return true;
            }
        }
        ++misses;
        std::uint32_t victim = 0;
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (lru[base + w] == 0)
                victim = w;
            else if (lru[base + victim] != 0
                     && lru[base + w] < lru[base + victim])
                victim = w;
        }
        tags[base + victim] = code;
        lru[base + victim] = ++clock;
        return false;
    }

    void
    flush()
    {
        std::fill(tags.begin(), tags.end(), 0);
        std::fill(lru.begin(), lru.end(), 0);
        ++flushes;
    }

    /** Cache's serialized state: tags, stamps, clock, counters. */
    std::string
    state() const
    {
        snap::Writer w;
        w.u64(tags.size());
        for (const Addr code : tags)
            w.u64(code);
        for (const std::uint64_t stamp : lru)
            w.u64(stamp);
        for (const std::uint64_t v : {clock, accesses, misses, flushes})
            w.u64(v);
        return w.buffer();
    }

    std::uint32_t assoc;
    std::uint32_t sets;
    std::uint32_t shift = 0;
    std::vector<Addr> tags;
    std::vector<std::uint64_t> lru;
    std::uint64_t clock = 0;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t flushes = 0;
};

/** Gshare with the original if/else saturating-counter update. */
struct RefPredictor
{
    explicit RefPredictor(const BranchPredictorParams &p)
        : mask((std::uint32_t{1} << p.table_bits) - 1),
          hist_mask(p.history_bits >= 32
                        ? ~std::uint32_t{0}
                        : (std::uint32_t{1} << p.history_bits) - 1),
          table(std::size_t{1} << p.table_bits, 2)
    {
    }

    bool
    predictAndUpdate(Addr pc, bool taken)
    {
        const std::uint32_t idx =
            (static_cast<std::uint32_t>(pc >> 2) ^ (history & hist_mask))
            & mask;
        const std::uint8_t counter = table[idx];
        const bool correct = (counter >= 2) == taken;
        ++lookups;
        if (!correct)
            ++mispredicts;
        if (taken && counter < 3)
            table[idx] = counter + 1;
        else if (!taken && counter > 0)
            table[idx] = counter - 1;
        history = (history << 1) | static_cast<std::uint32_t>(taken);
        return correct;
    }

    /** BranchPredictor's serialized state: history, table, counters. */
    std::string
    state() const
    {
        snap::Writer w;
        w.u32(history);
        w.u64(table.size());
        for (const std::uint8_t counter : table)
            w.u8(counter);
        w.u64(lookups);
        w.u64(mispredicts);
        return w.buffer();
    }

    std::uint32_t mask;
    std::uint32_t hist_mask;
    std::vector<std::uint8_t> table;
    std::uint32_t history = 0;
    std::uint64_t lookups = 0;
    std::uint64_t mispredicts = 0;
};

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

/** Corners of every MemoryProfile knob, then random profiles. */
std::vector<MemoryProfile>
memoryProfiles()
{
    std::vector<MemoryProfile> out;
    const auto with = [&out](auto edit) {
        MemoryProfile p;
        edit(p);
        out.push_back(p);
    };
    with([](MemoryProfile &p) { p.hot_fraction = 0.0; });
    with([](MemoryProfile &p) { p.hot_fraction = 1.0; });
    with([](MemoryProfile &p) { p.stride_fraction = 0.0; });
    with([](MemoryProfile &p) { p.stride_fraction = 1.0; });
    with([](MemoryProfile &p) { p.hot_set_bytes = 0; });
    with([](MemoryProfile &p) { p.hot_set_bytes = 64; }); // one line
    with([](MemoryProfile &p) { p.hot_set_bytes = 32; }); // < a line
    with([](MemoryProfile &p) { // three-line spans: rejection > 0
        p.working_set_bytes = 192;
        p.hot_set_bytes = 192;
        p.hot_fraction = 0.5;
    });
    with([](MemoryProfile &p) { // one-line working set
        p.working_set_bytes = 64;
        p.hot_set_bytes = 0;
    });
    Rng meta(0x9F0F11E);
    for (int i = 0; i < 24; ++i)
        out.push_back(randomMemoryProfile(meta));
    return out;
}

/** Corners of every BranchProfile knob, then random profiles. */
std::vector<BranchProfile>
branchProfiles()
{
    std::vector<BranchProfile> out;
    const auto with = [&out](auto edit) {
        BranchProfile p;
        edit(p);
        out.push_back(p);
    };
    with([](BranchProfile &p) { p.static_branches = 1; });
    with([](BranchProfile &p) { p.static_branches = 3; });
    with([](BranchProfile &p) { p.pattern_noise = 0.0; });
    with([](BranchProfile &p) { p.pattern_noise = 1.0; });
    with([](BranchProfile &p) { p.bias_min = p.bias_max = 0.8; });
    with([](BranchProfile &p) {
        p.bias_min = p.bias_max = 1.0;
        p.pattern_noise = 0.0;
    });
    with([](BranchProfile &p) {
        p.bias_min = p.bias_max = 0.0;
        p.pattern_noise = 0.0;
    });
    Rng meta(0xB1A5);
    for (int i = 0; i < 24; ++i)
        out.push_back(randomBranchProfile(meta));
    return out;
}

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
        ASSERT_EQ(savedState(batched), savedState(scalar))
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
        ASSERT_EQ(savedState(batched), savedState(scalar))
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
    EXPECT_EQ(savedState(mixed), savedState(scalar));
    EXPECT_EQ(mixed.misses(), scalar.misses());
    EXPECT_EQ(mixed.accesses(), scalar.accesses());
}

TEST(SubstrateBatch, AddressFillMatchesReferenceModel)
{
    const std::vector<MemoryProfile> profiles = memoryProfiles();
    for (std::size_t k = 0; k < profiles.size(); ++k) {
        AddressStream stream(profiles[k], 0x10000000, 0x5EED + k);
        RefAddressStream ref(profiles[k], 0x10000000, 0x5EED + k);
        std::vector<Addr> got(96);
        for (const std::size_t chunk : {1, 7, 96, 64}) {
            stream.fill(got.data(), chunk);
            for (std::size_t i = 0; i < chunk; ++i)
                ASSERT_EQ(got[i], ref.next())
                    << "profile " << k << ", chunk " << chunk
                    << ", element " << i;
        }
        EXPECT_EQ(savedState(stream), ref.state()) << "profile " << k;
    }
}

TEST(SubstrateBatch, BranchFillMatchesReferenceModel)
{
    const std::vector<BranchProfile> profiles = branchProfiles();
    for (std::size_t k = 0; k < profiles.size(); ++k) {
        BranchStream stream(profiles[k], 0x40000, 0xB5EED + k);
        RefBranchStream ref(profiles[k], 0x40000, 0xB5EED + k);
        std::vector<BranchOutcome> got(96);
        for (const std::size_t chunk : {1, 7, 96, 64}) {
            stream.fill(got.data(), chunk);
            for (std::size_t i = 0; i < chunk; ++i) {
                const BranchOutcome want = ref.next();
                ASSERT_EQ(got[i].pc, want.pc)
                    << "profile " << k << ", element " << i;
                ASSERT_EQ(got[i].taken, want.taken)
                    << "profile " << k << ", element " << i;
            }
        }
        EXPECT_EQ(savedState(stream), savedState(ref.rng))
            << "profile " << k;
    }
}

/**
 * accessBatch against the reference first-match probe and victim
 * scan, access by access, on the 4-way geometry the probe and victim
 * select special-case and on the loop-based associativities.
 * Flushes between batches leave sets that mix valid ways with
 * invalid ones, so the invalid-way branch of the victim choice runs.
 */
TEST(SubstrateBatch, CacheMatchesReferenceModel)
{
    static const CacheParams kGeoms[] = {
        {4 * 1024, 1, 64},   {8 * 1024, 2, 64},  {16 * 1024, 4, 64},
        {32 * 1024, 4, 128}, {16 * 1024, 8, 32}, {32 * 1024, 8, 64},
        {8 * 1024, 16, 64},
    };
    const std::vector<MemoryProfile> profiles = memoryProfiles();
    Rng meta(0xC0DE);
    for (const CacheParams &geom : kGeoms) {
        for (const MemoryProfile &profile : profiles) {
            AddressStream stream(profile, 0x10000000, meta.next());
            Cache cache(geom);
            RefCache ref(geom);
            std::vector<Addr> buf(160);
            std::vector<std::uint8_t> hits(buf.size());
            for (int batch = 0; batch < 12; ++batch) {
                const std::size_t n = meta.uniformInt(1, buf.size());
                stream.fill(buf.data(), n);
                // Odd batches take the hit-recording loop.
                const bool record = batch % 2 == 1;
                const std::uint64_t misses = cache.accessBatch(
                    buf.data(), n, record ? hits.data() : nullptr);
                std::uint64_t want_misses = 0;
                for (std::size_t i = 0; i < n; ++i) {
                    const bool hit = ref.access(buf[i]);
                    want_misses += hit ? 0 : 1;
                    if (record) {
                        ASSERT_EQ(hits[i] != 0, hit)
                            << "assoc " << geom.assoc << ", batch "
                            << batch << ", access " << i;
                    }
                }
                ASSERT_EQ(misses, want_misses);
                ASSERT_EQ(savedState(cache), ref.state())
                    << "assoc " << geom.assoc << ", batch " << batch;
                if (meta.uniformInt(0, 3) == 0) {
                    cache.flush();
                    ref.flush();
                }
            }
        }
    }
}

/**
 * The miss-path victim for every stamp pattern a set can hold over a
 * small alphabet: invalid ways (stamp 0) in any position, ties between
 * equal stamps (only a damaged or hand-made snapshot has them), and
 * distinct stamps in any order. The set is restored through the
 * snapshot layer, then one missing line is inserted.
 */
TEST(SubstrateBatch, VictimMatchesReferenceScanForEveryStampPattern)
{
    for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
        const CacheParams geom{assoc * 64, assoc, 64}; // one set
        const std::uint64_t alphabet = assoc == 8 ? 3 : 4;
        std::uint64_t patterns = 1;
        for (std::uint32_t w = 0; w < assoc; ++w)
            patterns *= alphabet;
        for (std::uint64_t pattern = 0; pattern < patterns; ++pattern) {
            RefCache ref(geom);
            std::uint64_t digits = pattern;
            for (std::uint32_t w = 0; w < assoc; ++w) {
                ref.lru[w] = digits % alphabet;
                ref.tags[w] = ref.lru[w] == 0 ? 0 : w + 1;
                digits /= alphabet;
            }
            ref.clock = alphabet;
            Cache cache(geom);
            snap::Reader r(ref.state());
            snap::Access::restore(r, cache);
            ASSERT_EQ(savedState(cache), ref.state());

            const Addr missing = Addr{1000} * 64;
            ASSERT_FALSE(cache.access(missing));
            ASSERT_FALSE(ref.access(missing));
            ASSERT_EQ(savedState(cache), ref.state())
                << "assoc " << assoc << ", stamp pattern " << pattern;
        }
    }
}

TEST(SubstrateBatch, PredictorMatchesReferenceModel)
{
    static const BranchPredictorParams kGeoms[] = {
        {4, 1}, {4, 16}, {12, 12}, {14, 32},
    };
    const std::vector<BranchProfile> profiles = branchProfiles();
    Rng meta(0xDEED5);
    for (const BranchPredictorParams &geom : kGeoms) {
        for (const BranchProfile &profile : profiles) {
            BranchStream stream(profile, 0x40000, meta.next());
            BranchPredictor bp(geom);
            RefPredictor ref(geom);
            std::vector<BranchOutcome> buf(160);
            std::vector<std::uint8_t> correct(buf.size());
            for (int batch = 0; batch < 12; ++batch) {
                const std::size_t n = meta.uniformInt(1, buf.size());
                stream.fill(buf.data(), n);
                // Odd batches take the result-recording loop.
                const bool record = batch % 2 == 1;
                const std::uint64_t misses = bp.predictBatch(
                    buf.data(), n, record ? correct.data() : nullptr);
                std::uint64_t want_misses = 0;
                for (std::size_t i = 0; i < n; ++i) {
                    const bool ok =
                        ref.predictAndUpdate(buf[i].pc, buf[i].taken);
                    want_misses += ok ? 0 : 1;
                    if (record) {
                        ASSERT_EQ(correct[i] != 0, ok)
                            << "table_bits " << geom.table_bits
                            << ", batch " << batch << ", branch " << i;
                    }
                }
                ASSERT_EQ(misses, want_misses);
                ASSERT_EQ(savedState(bp), ref.state())
                    << "table_bits " << geom.table_bits << ", batch "
                    << batch;
            }
        }
    }
}

/** The inverse of odd @p a modulo 2^64 (Newton's iteration). */
std::uint64_t
inverseMod64(std::uint64_t a)
{
    std::uint64_t x = a; // Correct to 3 bits; each step doubles that.
    for (int i = 0; i < 5; ++i)
        x *= 2 - a * x;
    return x;
}

/**
 * xoshiro256** state words whose next two outputs are both 2^64-1,
 * the one draw uniformInt rejects for every span. The output of a
 * step is rotl(s1 * 5, 7) * 9, which inverts with 9^-1, a rotation
 * and 5^-1; one step turns s1 into s0 ^ s1 ^ s2, which stays s1 when
 * s0 == s2.
 */
std::vector<std::uint64_t>
stateEmittingTwoMaxDraws()
{
    const std::uint64_t scrambled = ~std::uint64_t{0} * inverseMod64(9);
    const std::uint64_t rotated = (scrambled >> 7) | (scrambled << 57);
    const std::uint64_t s1 = rotated * inverseMod64(5);
    return {0x0123456789ABCDEFULL, s1, 0x0123456789ABCDEFULL,
            0xFEDCBA9876543210ULL};
}

/** Restore the serialized @p words into @p object. */
template <class T>
void
restoreState(T &object, const std::vector<std::uint64_t> &words)
{
    snap::Writer w;
    for (const std::uint64_t word : words)
        w.u64(word);
    snap::Reader r(w.buffer());
    snap::Access::restore(r, object);
}

/**
 * A rejected draw runs with probability about span/2^64, so random
 * profiles never reach it. Force it: restore a generator state whose
 * next two draws are 2^64-1 into each stream and its reference model,
 * at the point where the draw feeds a uniformInt.
 */
TEST(SubstrateBatch, FillsMatchReferenceModelOnARejectedDraw)
{
    const std::vector<std::uint64_t> state = stateEmittingTwoMaxDraws();
    {
        Rng probe(1);
        restoreState(probe, state);
        ASSERT_EQ(probe.next(), ~std::uint64_t{0});
        ASSERT_EQ(probe.next(), ~std::uint64_t{0});
    }

    const Addr base = 0x10000000;
    MemoryProfile hot_first; // Draw 1 picks a hot line of three.
    hot_first.hot_set_bytes = 192;
    hot_first.hot_fraction = 1.0;
    MemoryProfile cold_second; // Draw 1 is the stride coin, 2 the pick.
    cold_second.hot_set_bytes = 0;
    cold_second.working_set_bytes = 3 * 64 * 1024;
    for (const MemoryProfile &profile : {hot_first, cold_second}) {
        AddressStream stream(profile, base, 7);
        RefAddressStream ref(profile, base, 7);
        std::vector<std::uint64_t> words = state;
        words.push_back(base); // The cold-walk cursor.
        restoreState(stream, words);
        restoreState(ref.rng, state);
        std::vector<Addr> got(64);
        stream.fill(got.data(), got.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], ref.next()) << "element " << i;
        EXPECT_GE(ref.rejections, 1u);
        EXPECT_EQ(savedState(stream), ref.state());
    }

    BranchProfile profile;
    profile.static_branches = 3;
    BranchStream stream(profile, 0x40000, 7);
    RefBranchStream ref(profile, 0x40000, 7);
    restoreState(stream, state);
    restoreState(ref.rng, state);
    std::vector<BranchOutcome> got(64);
    stream.fill(got.data(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const BranchOutcome want = ref.next();
        ASSERT_EQ(got[i].pc, want.pc) << "element " << i;
        ASSERT_EQ(got[i].taken, want.taken) << "element " << i;
    }
    EXPECT_GE(ref.rejections, 1u);
    EXPECT_EQ(savedState(stream), savedState(ref.rng));
}

} // namespace
} // namespace hiss
