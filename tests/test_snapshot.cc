/**
 * @file
 * Snapshot/restore engine: fidelity and failure modes.
 *
 * The contract under test (docs/MODEL.md "Snapshot/restore"): a
 * system restored from a snapshot is indistinguishable from the
 * system that kept running — same System::stateHash() at the cut,
 * the same hash after running further, and byte-identical statistics
 * dumps at the end. Failure modes (version mismatch, truncation,
 * corruption, config mismatch, armed invariant monitor) must be
 * loud, typed errors, never silent divergence.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/hiss.h"
#include "snap/snap.h"

namespace hiss {
namespace {

/** Workload mix exercising every snapshot surface: CPU app, demand-
 *  paging GPU, an extra accelerator, and (optionally) fault
 *  injection with its watchdog and loss ledger. */
struct Rig
{
    std::unique_ptr<HeteroSystem> sys;
    CpuApp *app = nullptr;
};

FaultPlan
armedPlan()
{
    FaultPlan plan;
    plan.irq_drop_prob = 0.2;
    plan.irq_dup_prob = 0.15;
    plan.irq_delay_prob = 0.2;
    plan.ipi_delay_prob = 0.1;
    plan.kworker_stall_prob = 0.1;
    plan.signal_loss_prob = 0.1;
    plan.request_timeout = usToTicks(150);
    plan.max_retries = 4;
    return plan;
}

Rig
buildRig(std::uint64_t seed, bool faults)
{
    SystemConfig config;
    config.seed = seed;
    // Snapshots refuse an armed invariant monitor; stand down the
    // HISS_CHECK=ON default so these tests run on every preset.
    config.check_invariants = false;
    if (faults)
        config.fault = armedPlan();
    Rig rig;
    rig.sys = std::make_unique<HeteroSystem>(config);
    CpuAppParams app_params = parsec::params("x264");
    app_params.iterations = 6;
    rig.app = &rig.sys->addCpuApp(app_params);
    rig.app->start();
    rig.sys->launchGpu(gpu_suite::params("sssp"), true, true);
    rig.sys->addAccelerator().launch(gpu_suite::params("bfs"), true,
                                     true);
    return rig;
}

std::string
statsDump(HeteroSystem &sys)
{
    std::ostringstream os;
    os << sys.now() << '\n';
    sys.stats().dumpCsv(os);
    return os.str();
}

/** Cut a run at @p cut, restore into a twin, and require the twin to
 *  shadow the original exactly until @p end. */
void
expectRoundTrip(std::uint64_t seed, bool faults, Tick cut, Tick end)
{
    Rig original = buildRig(seed, faults);
    original.sys->runUntil(cut);
    const std::string blob = original.sys->snapshotBytes();
    const std::uint64_t hash_at_cut = original.sys->stateHash();

    Rig twin = buildRig(seed, faults);
    twin.sys->restoreSnapshotBytes(blob);
    EXPECT_EQ(twin.sys->now(), cut);
    EXPECT_EQ(twin.sys->stateHash(), hash_at_cut)
        << "seed " << seed << ": restore is not state-identical";

    // A re-snapshot of the restored twin must be byte-identical: the
    // round trip loses nothing.
    EXPECT_EQ(twin.sys->snapshotBytes(), blob);

    original.sys->runUntil(end);
    twin.sys->runUntil(end);
    EXPECT_EQ(twin.sys->stateHash(), original.sys->stateHash())
        << "seed " << seed << ": restored run diverged after the cut";
    EXPECT_EQ(statsDump(*twin.sys), statsDump(*original.sys));
}

TEST(Snapshot, RoundTripIsExactAcrossSeeds)
{
    for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL})
        expectRoundTrip(seed, false, msToTicks(5), msToTicks(12));
}

TEST(Snapshot, RoundTripIsExactWithFaultsArmed)
{
    for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL})
        expectRoundTrip(seed, true, msToTicks(5), msToTicks(12));
}

TEST(Snapshot, StateHashDetectsDivergence)
{
    Rig a = buildRig(1, false);
    Rig b = buildRig(2, false);
    a.sys->runUntil(msToTicks(3));
    b.sys->runUntil(msToTicks(3));
    EXPECT_NE(a.sys->stateHash(), b.sys->stateHash());
}

TEST(Snapshot, VersionMismatchIsLoud)
{
    Rig rig = buildRig(1, false);
    rig.sys->runUntil(msToTicks(1));
    std::string blob = rig.sys->snapshotBytes();
    // The format version is the u32 right after the magic.
    blob[sizeof snap::kMagic] ^= 0x7f;
    Rig twin = buildRig(1, false);
    try {
        twin.sys->restoreSnapshotBytes(blob);
        FAIL() << "version mismatch not detected";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Snapshot, TruncationIsLoud)
{
    Rig rig = buildRig(1, false);
    rig.sys->runUntil(msToTicks(1));
    const std::string blob = rig.sys->snapshotBytes();
    Rig twin = buildRig(1, false);
    EXPECT_THROW(twin.sys->restoreSnapshotBytes(
                     blob.substr(0, blob.size() / 2)),
                 snap::SnapshotError);
    EXPECT_THROW(twin.sys->restoreSnapshotBytes(blob.substr(0, 4)),
                 snap::SnapshotError);
}

TEST(Snapshot, CorruptionIsLoud)
{
    Rig rig = buildRig(1, false);
    rig.sys->runUntil(msToTicks(1));
    std::string blob = rig.sys->snapshotBytes();
    blob[blob.size() / 2] ^= 0x40;
    Rig twin = buildRig(1, false);
    try {
        twin.sys->restoreSnapshotBytes(blob);
        FAIL() << "payload corruption not detected";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Snapshot, ConfigMismatchIsLoud)
{
    Rig rig = buildRig(1, false);
    rig.sys->runUntil(msToTicks(1));
    const std::string blob = rig.sys->snapshotBytes();
    // Different seed => different config fingerprint.
    Rig wrong_seed = buildRig(2, false);
    try {
        wrong_seed.sys->restoreSnapshotBytes(blob);
        FAIL() << "config fingerprint mismatch not detected";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint"),
                  std::string::npos)
            << e.what();
    }
    // Different workload shape as well.
    SystemConfig config;
    config.seed = 1;
    config.check_invariants = false;
    HeteroSystem bare(config);
    EXPECT_THROW(bare.restoreSnapshotBytes(blob), snap::SnapshotError);
}

TEST(Snapshot, CoalescingModeMismatchIsLoud)
{
    // describe() names neither coalescing mode; the fingerprint
    // covers every SystemConfig field, so it tells them apart.
    const auto build = [](bool adaptive) {
        SystemConfig config;
        config.check_invariants = false;
        config.iommu.coalescing = true;
        config.iommu.adaptive_coalescing = adaptive;
        auto sys = std::make_unique<HeteroSystem>(config);
        sys->launchGpu(gpu_suite::params("ubench"), true, true);
        return sys;
    };
    const std::unique_ptr<HeteroSystem> adaptive = build(true);
    adaptive->runUntil(msToTicks(1));
    const std::string blob = adaptive->snapshotBytes();
    const std::unique_ptr<HeteroSystem> fixed = build(false);
    ASSERT_EQ(adaptive->config().describe(), fixed->config().describe());
    try {
        fixed->restoreSnapshotBytes(blob);
        FAIL() << "coalescing-mode mismatch not detected";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Snapshot, ArmedMonitorRefusesSnapshots)
{
    SystemConfig config;
    config.seed = 1;
    config.check_invariants = true;
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    sys.runUntil(msToTicks(1));
    snap::Writer w;
    EXPECT_THROW(sys.saveSnapshot(w), snap::SnapshotError);
}

TEST(Snapshot, FileRoundTrip)
{
    const std::string path =
        testing::TempDir() + "/hiss_snapshot_test.hsnap";
    Rig rig = buildRig(5, false);
    rig.sys->runUntil(msToTicks(2));
    rig.sys->saveSnapshotFile(path);
    Rig twin = buildRig(5, false);
    twin.sys->restoreSnapshotFile(path);
    EXPECT_EQ(twin.sys->stateHash(), rig.sys->stateHash());
    std::remove(path.c_str());
}

} // namespace
} // namespace hiss
