/**
 * @file
 * Runtime mutation drill for the state-coverage contract.
 *
 * hiss_statecheck proves statically that every field is referenced
 * by the save and restore implementations; this drill closes the
 * loop dynamically: mutating covered state must change the saved
 * bytes (and so the system's stateHash, a digest of them), and
 * restoring a snapshot must put them back. Runs under `ctest -L lint`
 * next to the analyzer itself.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/hiss.h"
#include "mem/branch_predictor.h"
#include "mem/cache.h"
#include "sim/ticks.h"
#include "snap/access.h"

namespace hiss {
namespace {

/** The serialized form of a substrate structure's state. The walk
 *  takes its object by reference, so it saves a copy. */
template <class T>
std::string
savedState(T object)
{
    snap::Writer w;
    snap::Io io(w);
    snap::Access::io(io, object);
    return w.buffer();
}

TEST(MutationDrill, CacheCounterFlipMovesTheHash)
{
    // A fresh cache has all-zero tags and lru stamps, so the entire
    // divergence here comes from the flush counter — exactly the
    // counter coverage the analyzer demands of the Cache save.
    Cache cache(CacheParams{1024, 2, 64});
    const std::string before = savedState(cache);
    cache.flush();
    EXPECT_NE(savedState(cache), before);
}

TEST(MutationDrill, CacheAccessCountersSplitEqualTagState)
{
    // Two caches with identical tag/lru contents but different
    // hit/miss histories must not save equal.
    Cache a(CacheParams{1024, 2, 64});
    Cache b(CacheParams{1024, 2, 64});
    a.access(0x1000);
    b.access(0x1000);
    EXPECT_EQ(savedState(a), savedState(b));
    b.access(0x1000); // Hit: tags unchanged, counters move.
    b.access(0x1000);
    EXPECT_NE(savedState(a), savedState(b));
}

TEST(MutationDrill, BranchPredictorLookupMovesTheHash)
{
    BranchPredictor bp(BranchPredictorParams{});
    const std::string before = savedState(bp);
    bp.predictAndUpdate(0x4000, true);
    EXPECT_NE(savedState(bp), before);
}

TEST(MutationDrill, PostSnapshotMutationDivergesAndRestoreRecovers)
{
    SystemConfig config;
    config.seed = 99;
    // Snapshots refuse an armed invariant monitor (see
    // tests/test_snapshot.cc); stand down the HISS_CHECK=ON default.
    config.check_invariants = false;

    auto build = [&config]() {
        auto sys = std::make_unique<HeteroSystem>(config);
        CpuAppParams app = parsec::params("x264");
        app.iterations = 4;
        sys->addCpuApp(app).start();
        return sys;
    };

    auto sys = build();
    sys->runUntil(msToTicks(1));
    const std::string blob = sys->snapshotBytes();
    const std::uint64_t at_cut = sys->stateHash();

    // Flip covered state: a little more simulation moves the event
    // clock, the RNG cursors and the per-core counters, all of which
    // the hash must observe.
    sys->runUntil(msToTicks(1) + usToTicks(50));
    EXPECT_NE(sys->stateHash(), at_cut)
        << "post-snapshot mutation did not move stateHash";

    // And the snapshot must put every one of those fields back.
    auto twin = build();
    twin->restoreSnapshotBytes(blob);
    EXPECT_EQ(twin->stateHash(), at_cut)
        << "restore did not reproduce the saved state";
}

} // namespace
} // namespace hiss
