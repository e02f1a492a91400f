/** @file Tests for the ExperimentRunner measurement harness. */

#include <gtest/gtest.h>

#include <string>

#include "core/experiment.h"
#include "core/system.h"
#include "sim/logging.h"
#include "workloads/gpu_suite.h"

namespace hiss {
namespace {

ExperimentConfig
fastConfig()
{
    ExperimentConfig config;
    config.seed = 81;
    config.rate_window = msToTicks(8);
    config.max_sim_time = msToTicks(400);
    return config;
}

TEST(ExperimentRunner, CpuOnlyBaselineCompletes)
{
    const RunResult r = ExperimentRunner::run(
        "swaptions", "", fastConfig(), MeasureMode::CpuOnly);
    EXPECT_FALSE(r.hit_time_cap);
    EXPECT_GT(r.cpu_runtime_ms, 1.0);
    EXPECT_EQ(r.faults_resolved, 0u);
    EXPECT_EQ(r.ssr_interrupts, 0u);
}

TEST(ExperimentRunner, GpuOnlyRunCompletes)
{
    const RunResult r = ExperimentRunner::run(
        "", "spmv", fastConfig(), MeasureMode::GpuOnly);
    EXPECT_FALSE(r.hit_time_cap);
    EXPECT_GT(r.gpu_runtime_ms, 1.0);
    EXPECT_GT(r.faults_resolved, 0u);
    EXPECT_GT(r.cc6_fraction, 0.0);
}

TEST(ExperimentRunner, PinnedBaselineHasNoSsrs)
{
    ExperimentConfig config = fastConfig();
    config.gpu_demand_paging = false;
    const RunResult r = ExperimentRunner::run(
        "swaptions", "ubench", config, MeasureMode::CpuPrimary);
    EXPECT_EQ(r.faults_resolved, 0u);
    EXPECT_EQ(r.ssr_interrupts, 0u);
    EXPECT_DOUBLE_EQ(r.ssr_cpu_fraction, 0.0);
}

/**
 * The figures' no-SSR CPU baselines (FigureArgs::cpuBaseline in
 * bench/harness.h) run the CPU app alone. That holds only while a GPU
 * on pinned memory cannot reach the CPUs: it raises no SSR, and the
 * model has no shared cache or DRAM contention. Pin it field by
 * field, under the config the figures use.
 */
TEST(ExperimentRunner, PinnedGpuBaselineEqualsCpuOnly)
{
    ExperimentConfig pinned;
    pinned.gpu_demand_paging = false;
    for (const char *app : {"swaptions", "blackscholes"}) {
        const RunResult with_gpu = ExperimentRunner::run(
            app, "ubench", pinned, MeasureMode::CpuPrimary);
        const RunResult alone = ExperimentRunner::run(
            app, "", ExperimentConfig{}, MeasureMode::CpuOnly);
        const std::string why = std::string(app)
            + ": a shared resource now couples the pinned GPU to the "
              "CPUs; put the GPU back into FigureArgs::cpuBaseline";
        EXPECT_EQ(with_gpu.hit_time_cap, alone.hit_time_cap) << why;
        EXPECT_EQ(with_gpu.elapsed_ms, alone.elapsed_ms) << why;
        EXPECT_EQ(with_gpu.cpu_runtime_ms, alone.cpu_runtime_ms) << why;
        EXPECT_EQ(with_gpu.gpu_runtime_ms, alone.gpu_runtime_ms) << why;
        EXPECT_EQ(with_gpu.gpu_ssr_rate, alone.gpu_ssr_rate) << why;
        EXPECT_EQ(with_gpu.accel_ssr_rate, alone.accel_ssr_rate) << why;
        EXPECT_EQ(with_gpu.fault_latency_mean_us,
                  alone.fault_latency_mean_us)
            << why;
        EXPECT_EQ(with_gpu.fault_latency_sd_us, alone.fault_latency_sd_us)
            << why;
        EXPECT_EQ(with_gpu.cc6_fraction, alone.cc6_fraction) << why;
        EXPECT_EQ(with_gpu.user_l1d_miss_rate, alone.user_l1d_miss_rate)
            << why;
        EXPECT_EQ(with_gpu.user_branch_miss_rate,
                  alone.user_branch_miss_rate)
            << why;
        EXPECT_EQ(with_gpu.ssr_cpu_fraction, alone.ssr_cpu_fraction)
            << why;
        EXPECT_EQ(with_gpu.total_irqs, alone.total_irqs) << why;
        EXPECT_EQ(with_gpu.total_ipis, alone.total_ipis) << why;
        EXPECT_EQ(with_gpu.ssr_interrupts, alone.ssr_interrupts) << why;
        EXPECT_EQ(with_gpu.faults_resolved, alone.faults_resolved) << why;
        EXPECT_EQ(with_gpu.msis_raised, alone.msis_raised) << why;
        EXPECT_EQ(with_gpu.aborted_wavefronts, alone.aborted_wavefronts)
            << why;
        EXPECT_EQ(with_gpu.ssr_irqs_per_core, alone.ssr_irqs_per_core)
            << why;
    }
}

TEST(ExperimentRunner, SsrsSlowTheCpuApp)
{
    ExperimentConfig baseline_config = fastConfig();
    baseline_config.gpu_demand_paging = false;
    const RunResult baseline = ExperimentRunner::run(
        "swaptions", "ubench", baseline_config,
        MeasureMode::CpuPrimary);
    const RunResult ssr = ExperimentRunner::run(
        "swaptions", "ubench", fastConfig(), MeasureMode::CpuPrimary);
    EXPECT_GT(ssr.cpu_runtime_ms, baseline.cpu_runtime_ms);
    EXPECT_GT(ssr.ssr_cpu_fraction, 0.02);
    EXPECT_GT(ssr.total_ipis, baseline.total_ipis);
}

TEST(ExperimentRunner, RateWindowControlsUbenchMeasurement)
{
    ExperimentConfig config = fastConfig();
    const RunResult r = ExperimentRunner::run(
        "", "ubench", config, MeasureMode::GpuOnly);
    EXPECT_NEAR(r.gpu_runtime_ms, ticksToMs(config.rate_window), 1e-9);
    EXPECT_GT(r.gpu_ssr_rate, 0.0);
}

/**
 * accel_ssr_rate is every accelerator's resolved faults over the
 * window, and the latency fields are the IOMMU's fault-latency
 * distribution: both read from a HeteroSystem built the way the
 * runner builds a GpuOnly ubench cell with one extra accelerator.
 */
TEST(ExperimentRunner, AcceleratorRateAndFaultLatencyMatchTheSystem)
{
    ExperimentConfig config = fastConfig();
    config.rate_window = msToTicks(2);
    config.extra_accelerators = 1;
    const RunResult r = ExperimentRunner::run(
        "", "ubench", config, MeasureMode::GpuOnly);

    SystemConfig sys_config;
    sys_config.seed = config.seed;
    sys_config.check_invariants = false;
    HeteroSystem sys(sys_config);
    const GpuWorkloadParams ubench = gpu_suite::params("ubench");
    sys.launchGpu(ubench, true, true);
    Gpu &extra = sys.addAccelerator();
    extra.launch(ubench, true, true);
    sys.runUntil(config.rate_window);
    sys.finalizeStats();

    ASSERT_GT(extra.faultsResolved(), 0u);
    const double seconds = ticksToSec(sys.now());
    EXPECT_EQ(r.gpu_ssr_rate,
              static_cast<double>(sys.gpu().faultsResolved()) / seconds);
    EXPECT_EQ(r.accel_ssr_rate,
              static_cast<double>(sys.gpu().faultsResolved()
                                  + extra.faultsResolved())
                  / seconds);
    const Distribution &latency = sys.iommu().faultLatency();
    ASSERT_GT(latency.count(), 1u);
    EXPECT_EQ(r.fault_latency_mean_us, latency.mean() / 1000.0);
    EXPECT_EQ(r.fault_latency_sd_us, latency.stddev() / 1000.0);
    EXPECT_GT(r.fault_latency_sd_us, 0.0);

    config.extra_accelerators = 0;
    const RunResult one = ExperimentRunner::run(
        "", "ubench", config, MeasureMode::GpuOnly);
    EXPECT_GT(one.gpu_ssr_rate, 0.0);
    EXPECT_EQ(one.accel_ssr_rate, one.gpu_ssr_rate);
}

TEST(ExperimentRunner, PerCoreIrqVectorPopulated)
{
    const RunResult r = ExperimentRunner::run(
        "", "spmv", fastConfig(), MeasureMode::GpuOnly);
    ASSERT_EQ(r.ssr_irqs_per_core.size(), 4u);
    std::uint64_t total = 0;
    for (const auto c : r.ssr_irqs_per_core)
        total += c;
    EXPECT_EQ(total, r.ssr_interrupts);
}

TEST(ExperimentRunner, RunAveragedAveragesAcrossSeeds)
{
    ExperimentConfig config = fastConfig();
    const RunResult s0 = ExperimentRunner::run(
        "", "spmv", config, MeasureMode::GpuOnly);
    ExperimentConfig config1 = config;
    config1.seed = config.seed + 1;
    const RunResult s1 = ExperimentRunner::run(
        "", "spmv", config1, MeasureMode::GpuOnly);
    const RunResult avg = ExperimentRunner::average({s0, s1});
    EXPECT_NEAR(avg.gpu_runtime_ms,
                (s0.gpu_runtime_ms + s1.gpu_runtime_ms) / 2.0, 1e-9);
    for (const auto field :
         {&RunResult::accel_ssr_rate, &RunResult::fault_latency_mean_us,
          &RunResult::fault_latency_sd_us}) {
        EXPECT_GT(s0.*field, 0.0);
        EXPECT_NE(s0.*field, s1.*field);
        EXPECT_EQ(avg.*field, (s0.*field + s1.*field) / 2.0);
    }
}

TEST(ExperimentRunner, ModeValidation)
{
    EXPECT_THROW(ExperimentRunner::run("", "", fastConfig(),
                                       MeasureMode::CpuPrimary),
                 FatalError);
    EXPECT_THROW(ExperimentRunner::run("x264", "", fastConfig(),
                                       MeasureMode::GpuPrimary),
                 FatalError);
    EXPECT_THROW(ExperimentRunner::run("x264", "ubench", fastConfig(),
                                       MeasureMode::GpuOnly),
                 FatalError);
    EXPECT_THROW(ExperimentRunner::run("x264", "ubench", fastConfig(),
                                       MeasureMode::CpuOnly),
                 FatalError);
    EXPECT_THROW(ExperimentRunner::average({}), FatalError);
}

TEST(ExperimentRunner, UnknownWorkloadsThrow)
{
    EXPECT_THROW(ExperimentRunner::run("doom", "ubench", fastConfig(),
                                       MeasureMode::CpuPrimary),
                 FatalError);
    EXPECT_THROW(ExperimentRunner::run("x264", "nbody", fastConfig(),
                                       MeasureMode::CpuPrimary),
                 FatalError);
}

TEST(ExperimentRunner, QosThresholdEnablesGovernor)
{
    ExperimentConfig config = fastConfig();
    config.qos_threshold = 0.01;
    config.rate_window = msToTicks(10);
    const RunResult throttled = ExperimentRunner::run(
        "", "ubench", config, MeasureMode::GpuOnly);
    const RunResult unthrottled = ExperimentRunner::run(
        "", "ubench", fastConfig(), MeasureMode::GpuOnly);
    EXPECT_LT(throttled.gpu_ssr_rate, unthrottled.gpu_ssr_rate);
}

} // namespace
} // namespace hiss
