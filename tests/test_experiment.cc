/** @file Tests for the ExperimentRunner measurement harness. */

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "sim/logging.h"

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
