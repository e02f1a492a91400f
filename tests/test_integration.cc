/**
 * @file
 * Integration and property tests across the whole stack: the SSR
 * pipeline end-to-end, the paper's qualitative claims as invariants,
 * and parameterized sweeps over mitigation combinations and QoS
 * thresholds.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/hiss.h"
#include "sim/logging.h"

namespace hiss {
namespace {

ExperimentConfig
fastConfig(std::uint64_t seed = 91)
{
    ExperimentConfig config;
    config.seed = seed;
    config.rate_window = msToTicks(8);
    config.max_sim_time = msToTicks(500);
    return config;
}

TEST(IntegrationPipeline, EveryIssuedFaultResolves)
{
    SystemConfig config;
    config.seed = 92;
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("spmv"), true, false);
    const bool done = sys.runUntilCondition(
        [&sys] { return sys.gpu().kernelsCompleted() > 0; },
        msToTicks(300));
    ASSERT_TRUE(done);
    // Let in-flight service work drain.
    sys.runUntil(sys.now() + msToTicks(2));
    EXPECT_EQ(sys.gpu().faultsIssued(), sys.gpu().faultsResolved());
    EXPECT_EQ(sys.iommu().pprQueueDepth(), 0u);
    EXPECT_EQ(sys.ssrDriver().pendingBottomHalf(), 0u);
    EXPECT_EQ(sys.kernel().workQueue().totalDepth(), 0u);
}

TEST(IntegrationPipeline, PageTableMatchesFaultedPages)
{
    SystemConfig config;
    config.seed = 93;
    HeteroSystem sys(config);
    GpuWorkloadParams workload = gpu_suite::params("bpt");
    sys.launchGpu(workload, true, false);
    sys.runUntilCondition(
        [&sys] { return sys.gpu().kernelsCompleted() > 0; },
        msToTicks(400));
    sys.runUntil(sys.now() + msToTicks(2));
    // Every distinct faulted page is mapped exactly once; duplicate
    // faults on the same page must not leak frames.
    EXPECT_EQ(sys.kernel().gpuPageTable().numMapped(),
              sys.kernel().frames().allocatedFrames());
    EXPECT_LE(sys.kernel().gpuPageTable().numMapped(),
              static_cast<std::size_t>(workload.pages));
}

TEST(IntegrationPipeline, PinnedPagingFillsPageTableLeaves)
{
    // A pinned no-SSR baseline maps a fresh page per ubench visit
    // (about a million over a paper run). VPNs come in order within a
    // launch, so the table holds them in full 512-entry leaves; a
    // per-page layout would fail this bound.
    SystemConfig config;
    config.seed = 94;
    config.check_invariants = false;
    HeteroSystem sys(config);
    sys.addCpuApp(parsec::params("blackscholes")).start();
    sys.launchGpu(gpu_suite::params("ubench"), false, true);
    sys.runUntil(msToTicks(2));
    const PageTable &table = sys.kernel().gpuPageTable();
    const std::size_t mapped = table.numMapped();
    ASSERT_GT(mapped, 10000u);
    EXPECT_EQ(mapped, sys.kernel().frames().allocatedFrames());
    EXPECT_LE(table.numLeaves(),
              (mapped + PageTable::kLeafEntries - 1)
                      / PageTable::kLeafEntries
                  + 1);
}

TEST(IntegrationInterference, SleepResidencyDropsWithSsrs)
{
    for (const std::string gpu : {"bfs", "sssp"}) {
        ExperimentConfig base = fastConfig();
        base.gpu_demand_paging = false;
        const RunResult no_ssr = ExperimentRunner::run(
            "", gpu, base, MeasureMode::GpuOnly);
        const RunResult ssr = ExperimentRunner::run(
            "", gpu, fastConfig(), MeasureMode::GpuOnly);
        EXPECT_GT(no_ssr.cc6_fraction, ssr.cc6_fraction) << gpu;
    }
}

TEST(IntegrationInterference, UbenchNearlyEliminatesSleep)
{
    const RunResult r = ExperimentRunner::run(
        "", "ubench", fastConfig(), MeasureMode::GpuOnly);
    EXPECT_LT(r.cc6_fraction, 0.25); // Paper: 86 % -> 12 %.
}

TEST(IntegrationInterference, InterruptsSpreadAcrossBusyCores)
{
    // With a CPU load keeping all cores awake, the default steering
    // policy distributes SSR interrupts over every core (paper
    // Section IV-C, /proc/interrupts observation).
    const RunResult r = ExperimentRunner::run(
        "streamcluster", "ubench", fastConfig(),
        MeasureMode::CpuPrimary);
    ASSERT_EQ(r.ssr_irqs_per_core.size(), 4u);
    for (int c = 0; c < 4; ++c)
        EXPECT_GT(r.ssr_irqs_per_core[static_cast<std::size_t>(c)],
                  r.ssr_interrupts / 16)
            << "core " << c;
}

TEST(IntegrationInterference, IpisExplodeUnderUbench)
{
    ExperimentConfig base = fastConfig();
    base.gpu_demand_paging = false;
    const RunResult no_ssr = ExperimentRunner::run(
        "swaptions", "ubench", base, MeasureMode::CpuPrimary);
    const RunResult ssr = ExperimentRunner::run(
        "swaptions", "ubench", fastConfig(), MeasureMode::CpuPrimary);
    // Paper Section IV-C: a 477x IPI increase. Require >= 20x here.
    EXPECT_GT(ssr.total_ipis, no_ssr.total_ipis * 20 + 20);
}

TEST(IntegrationInterference, PollutionRaisesUserMissRates)
{
    ExperimentConfig base = fastConfig();
    base.gpu_demand_paging = false;
    const RunResult clean = ExperimentRunner::run(
        "x264", "ubench", base, MeasureMode::CpuPrimary);
    const RunResult polluted = ExperimentRunner::run(
        "x264", "ubench", fastConfig(), MeasureMode::CpuPrimary);
    EXPECT_GT(polluted.user_l1d_miss_rate, clean.user_l1d_miss_rate);
    EXPECT_GT(polluted.user_branch_miss_rate,
              clean.user_branch_miss_rate);
}

TEST(IntegrationMitigations, CoalescingReducesInterrupts)
{
    ExperimentConfig coalesced = fastConfig();
    coalesced.mitigation.interrupt_coalescing = true;
    const RunResult with = ExperimentRunner::run(
        "swaptions", "sssp", coalesced, MeasureMode::CpuPrimary);
    const RunResult without = ExperimentRunner::run(
        "swaptions", "sssp", fastConfig(), MeasureMode::CpuPrimary);
    ASSERT_GT(without.ssr_interrupts, 0u);
    // Fewer interrupts deliver the same number of faults.
    const double with_per_fault =
        static_cast<double>(with.ssr_interrupts)
        / static_cast<double>(with.faults_resolved);
    const double without_per_fault =
        static_cast<double>(without.ssr_interrupts)
        / static_cast<double>(without.faults_resolved);
    EXPECT_LT(with_per_fault, without_per_fault);
}

TEST(IntegrationMitigations, MonolithicEliminatesBottomHalfIpis)
{
    ExperimentConfig mono = fastConfig();
    mono.mitigation.monolithic_bottom_half = true;
    const RunResult with = ExperimentRunner::run(
        "swaptions", "ubench", mono, MeasureMode::CpuPrimary);
    const RunResult without = ExperimentRunner::run(
        "swaptions", "ubench", fastConfig(), MeasureMode::CpuPrimary);
    EXPECT_LT(with.total_ipis, without.total_ipis);
}

TEST(IntegrationMitigations, SteeringConcentratesAndRaisesSleep)
{
    ExperimentConfig steer = fastConfig();
    steer.mitigation.steer_to_single_core = true;
    const RunResult with = ExperimentRunner::run(
        "", "ubench", steer, MeasureMode::GpuOnly);
    const RunResult without = ExperimentRunner::run(
        "", "ubench", fastConfig(), MeasureMode::GpuOnly);
    // All SSR interrupts on core 0.
    for (std::size_t c = 1; c < with.ssr_irqs_per_core.size(); ++c)
        EXPECT_EQ(with.ssr_irqs_per_core[c], 0u);
    // Paper Fig. 9: steering raises CC6 residency (12 % -> ~50 %).
    EXPECT_GT(with.cc6_fraction, without.cc6_fraction + 0.2);
}

/** Every mitigation combination must run cleanly end to end. */
class MitigationSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(MitigationSweep, CombinationRunsAndServicesFaults)
{
    const auto combos = MitigationConfig::allCombinations();
    ExperimentConfig config = fastConfig();
    config.mitigation = combos[static_cast<std::size_t>(GetParam())];
    const RunResult r = ExperimentRunner::run(
        "swaptions", "spmv", config, MeasureMode::CpuPrimary);
    EXPECT_FALSE(r.hit_time_cap)
        << config.mitigation.label();
    EXPECT_GT(r.faults_resolved, 0u) << config.mitigation.label();
    EXPECT_GT(r.cpu_runtime_ms, 0.0) << config.mitigation.label();
}

INSTANTIATE_TEST_SUITE_P(AllCombos, MitigationSweep,
                         ::testing::Range(0, 8));

/**
 * QoS property (paper Section VI): the governor bounds the SSR
 * CPU-time fraction near the configured threshold even under the
 * aggressive microbenchmark. The paper notes overhead "can be
 * slightly more than x%" because enforcement is periodic; allow
 * slack.
 */
class QosThresholdSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(QosThresholdSweep, SsrFractionIsBounded)
{
    const double threshold = GetParam();
    ExperimentConfig config = fastConfig(95);
    config.qos_threshold = threshold;
    config.rate_window = msToTicks(12);
    const RunResult r = ExperimentRunner::run(
        "swaptions", "ubench", config, MeasureMode::CpuPrimary);
    EXPECT_LT(r.ssr_cpu_fraction, threshold * 2.0 + 0.02)
        << "threshold " << threshold;
    EXPECT_GT(r.faults_resolved, 0u); // Still makes progress.
}

INSTANTIATE_TEST_SUITE_P(Thresholds, QosThresholdSweep,
                         ::testing::Values(0.01, 0.05, 0.25));

TEST(IntegrationQos, ThrottlingTradesGpuForCpu)
{
    // th_1 must yield better CPU runtime and worse GPU throughput
    // than the unthrottled default (paper Fig. 12).
    ExperimentConfig throttled = fastConfig(96);
    throttled.qos_threshold = 0.01;
    const RunResult cpu_throttled = ExperimentRunner::run(
        "swaptions", "ubench", throttled, MeasureMode::CpuPrimary);
    const RunResult cpu_default = ExperimentRunner::run(
        "swaptions", "ubench", fastConfig(96),
        MeasureMode::CpuPrimary);
    EXPECT_LT(cpu_throttled.cpu_runtime_ms, cpu_default.cpu_runtime_ms);

    const RunResult gpu_throttled = ExperimentRunner::run(
        "swaptions", "ubench", throttled, MeasureMode::GpuPrimary);
    const RunResult gpu_default = ExperimentRunner::run(
        "swaptions", "ubench", fastConfig(96),
        MeasureMode::GpuPrimary);
    EXPECT_LT(gpu_throttled.gpu_ssr_rate,
              gpu_default.gpu_ssr_rate * 0.5);
}

TEST(IntegrationQos, BackpressureStallsTheGpu)
{
    // With a 1 % budget the GPU spends most of its time stalled.
    SystemConfig config;
    config.seed = 97;
    config.enableQos(0.01);
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    sys.runUntil(msToTicks(10));
    const double stall_share =
        static_cast<double>(sys.gpu().stallTicks())
        / (static_cast<double>(sys.now())
           * gpu_suite::params("ubench").wavefronts);
    EXPECT_GT(stall_share, 0.5);
}

} // namespace
} // namespace hiss
