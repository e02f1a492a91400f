/**
 * @file
 * Tests for the fault-injection subsystem (src/fault) and the
 * driver/GPU recovery paths it exercises.
 *
 * The contract under test, end to end:
 *  - a disabled FaultPlan constructs no injector and perturbs
 *    nothing (fault-free runs stay bit-identical to builds without
 *    the subsystem);
 *  - every injected fault is either recovered (retry, watchdog
 *    re-raise, resend) or accounted as an aborted wavefront — runs
 *    never hang and the invariant monitor stays green;
 *  - identical seed + identical FaultPlan reproduce bit-identical
 *    statistics, with or without the invariant layer armed.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/invariants.h"
#include "core/hiss.h"
#include "fault/fault_injector.h"

namespace hiss {
namespace {

std::string
csvFingerprint(const SystemConfig &config, const char *gpu_app,
               double ms = 3.0)
{
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params(gpu_app), true, true);
    sys.runUntil(msToTicks(ms));
    sys.finalizeStats();
    std::ostringstream os;
    sys.stats().dumpCsv(os);
    return os.str();
}

TEST(FaultPlan, EnabledSemantics)
{
    FaultPlan plan;
    EXPECT_FALSE(plan.enabled());
    EXPECT_EQ(plan.label(), "none");

    // Recovery knobs alone do not arm the injector: request_timeout
    // and max_retries only matter once some fault class is active.
    plan.request_timeout = usToTicks(100);
    plan.max_retries = 3;
    EXPECT_FALSE(plan.enabled());

    FaultPlan drops;
    drops.irq_drop_prob = 0.01;
    EXPECT_TRUE(drops.enabled());
    FaultPlan capacity;
    capacity.ppr_queue_capacity = 4;
    EXPECT_TRUE(capacity.enabled());
    FaultPlan bug;
    bug.unledgered_drops = 1;
    EXPECT_TRUE(bug.enabled());
    EXPECT_NE(drops.label(), "none");
}

TEST(FaultInjector, DisabledPlanConstructsNoInjector)
{
    SystemConfig config;
    config.seed = 5;
    HeteroSystem sys(config);
    EXPECT_EQ(sys.faultInjector(), nullptr);

    SystemConfig faulty = config;
    faulty.fault.irq_drop_prob = 0.05;
    HeteroSystem armed(faulty);
    ASSERT_NE(armed.faultInjector(), nullptr);
    EXPECT_EQ(armed.faultInjector()->plan().irq_drop_prob, 0.05);
}

TEST(FaultInjector, DroppedMsisAreReRaisedByTheDeviceWatchdog)
{
    SystemConfig config;
    config.seed = 11;
    config.check_invariants = true;
    config.fault.irq_drop_prob = 0.2;
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    EXPECT_NO_THROW(sys.runUntil(msToTicks(5)));
    sys.finalizeStats();

    ASSERT_NE(sys.faultInjector(), nullptr);
    EXPECT_GT(sys.faultInjector()->irqsDropped(), 0u);
    // Every drop is eventually recovered: the re-raise counter keeps
    // pace and the GPU still makes progress.
    EXPECT_EQ(sys.iommu().msiRecoveries(),
              sys.faultInjector()->irqsDropped());
    EXPECT_GT(sys.gpu().faultsResolved(), 0u);
}

TEST(FaultInjector, DroppedSignalIrqsAreReRaisedByTheDriverWatchdog)
{
    SystemConfig config;
    config.seed = 11;
    config.check_invariants = true;
    config.fault.irq_drop_prob = 0.2;
    HeteroSystem sys(config);
    SignalQueue &signals = sys.signalQueue();
    // Spread over time: a burst at t=0 would batch into one or two
    // interrupts.
    for (int i = 0; i < 200; ++i) {
        signals.sendSignal(nullptr);
        sys.runUntil(sys.now() + usToTicks(20));
    }
    EXPECT_TRUE(sys.runUntilCondition(
        [&] { return signals.signalsDelivered() == signals.signalsSent(); },
        sys.now() + msToTicks(5)));
    // Let any watchdog still pending fire.
    sys.runUntil(sys.now() + config.fault.irq_watchdog);
    sys.finalizeStats();

    const FaultInjector &faults = *sys.faultInjector();
    EXPECT_GT(faults.irqsDropped(), 0u);
    EXPECT_EQ(sys.signalDriver().irqRecoveries(), faults.irqsDropped());
    EXPECT_EQ(signals.signalsDelivered(), signals.signalsSent());
}

TEST(FaultInjector, PprOverflowRejectsAndGpuRetries)
{
    SystemConfig config;
    config.seed = 3;
    config.check_invariants = true;
    config.fault.ppr_queue_capacity = 2;
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    EXPECT_NO_THROW(sys.runUntil(msToTicks(5)));
    sys.finalizeStats();

    EXPECT_GT(sys.iommu().pprsRejected(), 0u);
    EXPECT_GT(sys.gpu().translateRetries(), 0u);
    // The retry path recovers: requests still complete.
    EXPECT_GT(sys.gpu().faultsResolved(), 0u);
}

TEST(FaultInjector, ExhaustedRetriesAbortTheWavefront)
{
    SystemConfig config;
    config.seed = 3;
    config.check_invariants = true;
    config.fault.ppr_queue_capacity = 1;
    config.fault.max_retries = 0; // First INVALID answer aborts.
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    EXPECT_NO_THROW(sys.runUntil(msToTicks(5)));
    sys.finalizeStats();

    EXPECT_GT(sys.gpu().abortedWavefronts(), 0u);
    EXPECT_EQ(sys.gpu().translateRetries(), 0u);
}

TEST(FaultInjector, StalledKworkersLoseRacesWithTheRequestWatchdog)
{
    SystemConfig config;
    config.seed = 7;
    config.check_invariants = true;
    config.fault.kworker_stall_prob = 0.5;
    config.fault.kworker_stall = usToTicks(200);
    config.fault.request_timeout = usToTicks(120);
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    EXPECT_NO_THROW(sys.runUntil(msToTicks(5)));
    sys.finalizeStats();

    ASSERT_NE(sys.faultInjector(), nullptr);
    EXPECT_GT(sys.faultInjector()->kworkerStalls(), 0u);
    // The watchdog aborted some work-queued requests, every abort
    // reached the device, and the zombie completions were suppressed
    // rather than double-counted.
    EXPECT_GT(sys.ssrDriver().requestsAborted(), 0u);
    EXPECT_EQ(sys.iommu().faultsAborted(),
              sys.ssrDriver().requestsAborted());
    EXPECT_EQ(sys.ssrDriver().completionsSuppressed(),
              sys.ssrDriver().requestsAborted());
    EXPECT_GT(sys.gpu().abortedWavefronts(), 0u);
}

TEST(FaultInjector, LostSignalsAreResent)
{
    SystemConfig config;
    config.seed = 13;
    config.check_invariants = true;
    config.fault.signal_loss_prob = 0.3;
    config.fault.signal_resend = usToTicks(50);
    HeteroSystem sys(config);
    int delivered = 0;
    for (int i = 0; i < 200; ++i)
        sys.signalQueue().sendSignal([&](CpuCore &) { ++delivered; });

    // Every signal is eventually delivered: a lost one is re-sent
    // (and redrawn) until a copy survives, so loss never starves the
    // waiter — it only delays it.
    EXPECT_TRUE(sys.runUntilCondition([&] { return delivered == 200; },
                                      msToTicks(100)));
    sys.finalizeStats();

    ASSERT_NE(sys.faultInjector(), nullptr);
    EXPECT_GT(sys.faultInjector()->signalsLost(), 0u);
    EXPECT_EQ(sys.signalQueue().signalsResent(),
              sys.faultInjector()->signalsLost());
}

TEST(FaultInjector, DuplicatedIrqsAreHarmless)
{
    SystemConfig config;
    config.seed = 17;
    config.check_invariants = true;
    config.fault.irq_dup_prob = 0.3;
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    EXPECT_NO_THROW(sys.runUntil(msToTicks(5)));
    sys.finalizeStats();

    ASSERT_NE(sys.faultInjector(), nullptr);
    EXPECT_GT(sys.faultInjector()->irqsDuplicated(), 0u);
    EXPECT_GT(sys.gpu().faultsResolved(), 0u);
}

TEST(FaultDeterminism, SameSeedAndPlanBitIdentical)
{
    SystemConfig config;
    config.seed = 29;
    config.fault.irq_drop_prob = 0.05;
    config.fault.irq_dup_prob = 0.02;
    config.fault.ppr_queue_capacity = 8;
    config.fault.kworker_stall_prob = 0.05;
    config.fault.signal_loss_prob = 0.05;
    EXPECT_EQ(csvFingerprint(config, "ubench"),
              csvFingerprint(config, "ubench"));
}

TEST(FaultDeterminism, ArmedChecksDoNotPerturbFaultyRuns)
{
    SystemConfig config;
    config.seed = 31;
    config.check_period = usToTicks(20);
    config.fault.irq_drop_prob = 0.1;
    config.fault.ppr_queue_capacity = 4;
    config.fault.kworker_stall_prob = 0.05;
    SystemConfig checked = config;
    checked.check_invariants = true;
    EXPECT_EQ(csvFingerprint(config, "spmv"),
              csvFingerprint(checked, "spmv"));
}

TEST(FaultDeterminism, DifferentSeedsDivergeUnderFaults)
{
    SystemConfig a;
    a.fault.irq_drop_prob = 0.1;
    a.seed = 41;
    SystemConfig b = a;
    b.seed = 42;
    EXPECT_NE(csvFingerprint(a, "ubench"), csvFingerprint(b, "ubench"));
}

} // namespace
} // namespace hiss
