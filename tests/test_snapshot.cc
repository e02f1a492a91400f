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

#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "core/hiss.h"
#include "fault/fault_injector.h"
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

using SystemBuilder = std::function<std::unique_ptr<HeteroSystem>()>;

/** Snapshot @p original where it stands, restore into a twin from
 *  @p build, and require the twin to shadow the original exactly
 *  until @p end. */
void
expectTwinShadows(HeteroSystem &original, const SystemBuilder &build,
                  Tick end, const std::string &label)
{
    const Tick cut = original.now();
    const std::string blob = original.snapshotBytes();
    const std::uint64_t hash_at_cut = original.stateHash();

    const std::unique_ptr<HeteroSystem> twin = build();
    twin->restoreSnapshotBytes(blob);
    EXPECT_EQ(twin->now(), cut) << label;
    EXPECT_EQ(twin->stateHash(), hash_at_cut)
        << label << ": restore is not state-identical";

    // A re-snapshot of the restored twin must be byte-identical: the
    // round trip loses nothing.
    EXPECT_EQ(twin->snapshotBytes(), blob) << label;

    original.runUntil(end);
    twin->runUntil(end);
    EXPECT_EQ(twin->stateHash(), original.stateHash())
        << label << ": restored run diverged after the cut";
    EXPECT_EQ(statsDump(*twin), statsDump(original)) << label;
}

/** Cut a run at @p cut, restore into a twin, and require the twin to
 *  shadow the original exactly until @p end. */
void
expectRoundTrip(std::uint64_t seed, bool faults, Tick cut, Tick end)
{
    Rig original = buildRig(seed, faults);
    original.sys->runUntil(cut);
    expectTwinShadows(*original.sys,
                      [&] { return buildRig(seed, faults).sys; },
                      end, "seed " + std::to_string(seed));
}

/**
 * A faults-armed system on which one device alone raises interrupts:
 * the GPU signal queue (fed by driveUntil) or, with @p iommu, the
 * IOMMU under a demand-paging ubench.
 */
std::unique_ptr<HeteroSystem>
buildLineRig(std::uint64_t seed, bool iommu)
{
    SystemConfig config;
    config.seed = seed;
    config.check_invariants = false;
    config.fault = armedPlan();
    // armedPlan()'s 150 us request watchdog aborts every ubench
    // wavefront within 1 ms, after which the IOMMU raises nothing.
    config.fault.request_timeout = FaultPlan{}.request_timeout;
    auto sys = std::make_unique<HeteroSystem>(config);
    if (iommu)
        sys->launchGpu(gpu_suite::params("ubench"), true, true);
    return sys;
}

/**
 * Step @p sys event by event until @p reached holds, sending one
 * callback-free signal every 20 us when @p send (a burst at t=0 would
 * batch into one or two interrupts). Signals go from here because a
 * scheduled lambda has no tag and cannot cross a snapshot. False if
 * @p horizon passes first.
 */
bool
driveUntil(HeteroSystem &sys, const std::function<bool()> &reached,
           bool send, Tick horizon)
{
    while (sys.now() < horizon) {
        if (send)
            sys.signalQueue().sendSignal(nullptr);
        if (sys.runUntilCondition(reached, sys.now() + usToTicks(20)))
            return true;
    }
    return false;
}

/** Cut each line rig the moment @p moved (a fault counter) first
 *  moves, and require the round trip to be exact. */
void
expectExactAtFirst(std::uint64_t (FaultInjector::*moved)() const,
                   const char *what)
{
    for (const bool iommu : {false, true}) {
        for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL, 42ULL}) {
            const std::string label = std::string(what) + " on the "
                + (iommu ? "IOMMU" : "signal queue") + ", seed "
                + std::to_string(seed);
            const std::unique_ptr<HeteroSystem> original =
                buildLineRig(seed, iommu);
            const FaultInjector &faults = *original->faultInjector();
            ASSERT_TRUE(driveUntil(
                *original, [&] { return (faults.*moved)() > 0; }, !iommu,
                msToTicks(10)))
                << label << ": not reached within 10 ms";
            expectTwinShadows(
                *original, [&] { return buildLineRig(seed, iommu); },
                original->now() + msToTicks(2), label);
        }
    }
}

TEST(Snapshot, RoundTripIsExactAcrossSeeds)
{
    for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL})
        expectRoundTrip(seed, false, msToTicks(5), msToTicks(12));
}

/** Wavefronts the fault watchdog gave up on, across every GPU. */
std::uint64_t
abortedWavefronts(HeteroSystem &sys)
{
    std::uint64_t aborted = sys.gpu().abortedWavefronts();
    for (std::size_t i = 0; i < sys.numExtraAccelerators(); ++i)
        aborted += sys.extraAccelerator(i).abortedWavefronts();
    return aborted;
}

TEST(Snapshot, RoundTripIsExactWithFaultsArmed)
{
    for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
        expectRoundTrip(seed, true, msToTicks(5), msToTicks(12));

        // The 150 us request watchdog has aborted every wavefront of
        // some seeds by 2 ms, so the 5 ms cut may see no SSR traffic.
        // At 0.1 ms the primary GPU's first translates are still
        // unresolved and nothing has aborted: every abort crosses
        // this cut.
        Rig original = buildRig(seed, true);
        original.sys->runUntil(usToTicks(100));
        const Gpu &gpu = original.sys->gpu();
        ASSERT_GT(gpu.faultsIssued(), gpu.faultsResolved())
            << "seed " << seed << ": no translate unresolved at the cut";
        ASSERT_EQ(abortedWavefronts(*original.sys), 0u) << "seed " << seed;
        expectTwinShadows(
            *original.sys, [&] { return buildRig(seed, true).sys; },
            msToTicks(12), "seed " + std::to_string(seed) + " at 0.1 ms");
        EXPECT_GT(abortedWavefronts(*original.sys), 0u) << "seed " << seed;
    }
}

TEST(Snapshot, RoundTripCarriesSignalsWithFaultsArmed)
{
    for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
        Rig original = buildRig(seed, true);
        // Signals spread up to the cut; armedPlan() loses some, so the
        // injector's loss ledger crosses the cut as well.
        driveUntil(*original.sys, [] { return false; }, true,
                   msToTicks(5));
        const SignalQueue &signals = original.sys->signalQueue();
        ASSERT_GT(original.sys->faultInjector()->signalsLost(), 0u)
            << "seed " << seed;
        ASSERT_GT(signals.signalsSent(), signals.signalsDelivered())
            << "seed " << seed << ": no signal in flight at the cut";
        expectTwinShadows(
            *original.sys, [&] { return buildRig(seed, true).sys; },
            msToTicks(12), "seed " + std::to_string(seed));
    }
}

TEST(Snapshot, CutWithPendingIrqWatchdogIsExact)
{
    // A dropped delivery leaves the driver's line in flight until its
    // watchdog fires; the restored watchdog must free it.
    expectExactAtFirst(&FaultInjector::irqsDropped, "dropped interrupt");
}

TEST(Snapshot, CutWithPendingDuplicateIrqIsExact)
{
    expectExactAtFirst(&FaultInjector::irqsDuplicated,
                       "duplicated interrupt");
}

TEST(Snapshot, CutWithTrackedWorkItemsIsExact)
{
    // With faults armed the driver tracks every request it queues, so
    // each work item queued or in service at the cut must restore
    // with its driver routing.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rig original = buildRig(seed, true);
        const WorkQueue &wq = original.sys->kernel().workQueue();
        ASSERT_TRUE(original.sys->runUntilCondition(
            [&] { return wq.totalDepth() + wq.inService() >= 4; },
            msToTicks(10)))
            << "seed " << seed << ": four work items never in flight";
        expectTwinShadows(
            *original.sys, [&] { return buildRig(seed, true).sys; },
            original.sys->now() + msToTicks(5),
            "seed " + std::to_string(seed));
    }
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

/** The little-endian u64 at @p at of @p bytes. */
std::uint64_t
wordAt(const std::string &bytes, std::size_t at)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[at + i]))
             << (i * 8);
    return v;
}

/** Overwrite the little-endian word of @p width bytes at @p at. */
void
patchWord(std::string &bytes, std::size_t at, std::uint64_t value,
          std::size_t width)
{
    for (std::size_t i = 0; i < width; ++i)
        bytes[at + i] = static_cast<char>((value >> (i * 8)) & 0xffU);
}

TEST(Snapshot, ReframedDamageIsLoud)
{
    // The checksum only catches accidental damage: frame() recomputes
    // it for any payload. A patched, re-framed payload must still fail
    // with a SnapshotError, never a crash or a std::length_error.
    Rig rig = buildRig(1, false);
    rig.sys->runUntil(msToTicks(2));
    const std::string payload = snap::unframe(rig.sys->snapshotBytes());
    // The event queue's section is the last one; its slot count
    // follows the section name and the clock, sequence and executed
    // words, and the free-slot list follows the slot generations.
    const std::string name("\x06\0\0\0\0\0\0\0events", 14);
    const std::size_t events = payload.rfind(name);
    ASSERT_NE(events, std::string::npos);
    const std::size_t slots_at = events + name.size() + 3 * 8;
    const std::size_t free_at = slots_at + 8 + 4 * wordAt(payload, slots_at);
    ASSERT_GT(wordAt(payload, free_at), 0u) << "no free slot to damage";

    std::string huge_table = payload;
    patchWord(huge_table, slots_at, std::uint64_t{1} << 62, 8);
    std::string bad_free_slot = payload;
    patchWord(bad_free_slot, free_at + 8, 1000000, 4);
    for (const std::string *damaged : {&huge_table, &bad_free_slot}) {
        Rig twin = buildRig(1, false);
        EXPECT_THROW(twin.sys->restoreSnapshotBytes(snap::frame(*damaged)),
                     snap::SnapshotError);
    }
    Rig twin = buildRig(1, false);
    twin.sys->restoreSnapshotBytes(snap::frame(payload));
}

TEST(Snapshot, RestoreRejectsPagesOutOfStepWithFrames)
{
    // Save checks nothing, so a page mapped to an unallocated frame,
    // or a frame allocated but never mapped, reaches the payload the
    // way a re-framed file would. Restore must refuse both: every
    // mapped frame allocated, every allocated frame mapped.
    for (const bool stray_page : {true, false}) {
        Rig rig = buildRig(1, false);
        rig.sys->runUntil(msToTicks(1));
        Kernel &kernel = rig.sys->kernel();
        ASSERT_GT(kernel.gpuPageTable().numMapped(), 0u);
        if (stray_page)
            kernel.gpuPageTable().map(Vpn{1} << 50,
                                      kernel.frames().totalFrames() - 1);
        else
            kernel.frames().allocate();
        const std::string blob = rig.sys->snapshotBytes();
        Rig twin = buildRig(1, false);
        try {
            twin.sys->restoreSnapshotBytes(blob);
            FAIL() << "pages and frames out of step not detected";
        } catch (const snap::SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          stray_page ? "unallocated frame"
                                     : "frames allocated"),
                      std::string::npos)
                << e.what();
        }
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
