#include "core/experiment.h"

#include <cstdio>

#include "core/cell_key.h"
#include "core/system.h"
#include "sim/logging.h"
#include "workloads/gpu_suite.h"
#include "workloads/parsec.h"

namespace hiss {
namespace {

/** Iteration count that effectively never completes within a run. */
constexpr std::uint64_t kEndlessIterations = 1'000'000'000ULL;

/** The fields average() takes the mean of; counts divide as integers. */
constexpr double RunResult::*kMeanFields[] = {
    &RunResult::elapsed_ms, &RunResult::cpu_runtime_ms,
    &RunResult::gpu_runtime_ms, &RunResult::gpu_ssr_rate,
    &RunResult::accel_ssr_rate, &RunResult::fault_latency_mean_us,
    &RunResult::fault_latency_sd_us, &RunResult::cc6_fraction,
    &RunResult::user_l1d_miss_rate, &RunResult::user_branch_miss_rate,
    &RunResult::ssr_cpu_fraction};
constexpr std::uint64_t RunResult::*kCountFields[] = {
    &RunResult::total_irqs, &RunResult::total_ipis,
    &RunResult::ssr_interrupts, &RunResult::faults_resolved,
    &RunResult::msis_raised, &RunResult::aborted_wavefronts};

RunResult
extractResult(HeteroSystem &sys, Tick elapsed)
{
    sys.finalizeStats();
    RunResult r;
    r.elapsed_ms = ticksToMs(elapsed);

    Kernel &kernel = sys.kernel();
    const int n = kernel.numCores();
    double cc6_sum = 0.0;
    std::uint64_t l1d_acc = 0;
    std::uint64_t l1d_miss = 0;
    std::uint64_t br = 0;
    std::uint64_t br_miss = 0;
    Tick ssr_ticks = 0;
    for (int i = 0; i < n; ++i) {
        CpuCore &core = kernel.core(i);
        if (elapsed > 0)
            cc6_sum += static_cast<double>(core.cc6Ticks())
                / static_cast<double>(elapsed);
        l1d_acc += core.userL1dAccesses();
        l1d_miss += core.userL1dMisses();
        br += core.userBranches();
        br_miss += core.userBranchMisses();
        ssr_ticks += core.ssrTicks();
        r.total_irqs += core.irqCount();
        r.total_ipis += core.ipiCount();
        r.ssr_irqs_per_core.push_back(
            kernel.procInterrupts().irqCount("iommu_drv", i));
    }
    r.cc6_fraction = n > 0 ? cc6_sum / n : 0.0;
    r.user_l1d_miss_rate = l1d_acc > 0
        ? static_cast<double>(l1d_miss) / static_cast<double>(l1d_acc)
        : 0.0;
    r.user_branch_miss_rate = br > 0
        ? static_cast<double>(br_miss) / static_cast<double>(br)
        : 0.0;
    r.ssr_cpu_fraction = elapsed > 0 && n > 0
        ? static_cast<double>(ssr_ticks)
            / (static_cast<double>(elapsed) * n)
        : 0.0;
    r.ssr_interrupts = kernel.procInterrupts().totalFor("iommu_drv");
    r.faults_resolved = sys.gpu().faultsResolved();
    r.msis_raised = sys.iommu().msisRaised();
    r.aborted_wavefronts = sys.gpu().abortedWavefronts();
    std::uint64_t accel_faults = r.faults_resolved;
    for (std::size_t i = 0; i < sys.numExtraAccelerators(); ++i) {
        const Gpu &extra = sys.extraAccelerator(i);
        r.aborted_wavefronts += extra.abortedWavefronts();
        accel_faults += extra.faultsResolved();
    }
    if (elapsed > 0) {
        r.gpu_ssr_rate = static_cast<double>(r.faults_resolved)
            / ticksToSec(elapsed);
        r.accel_ssr_rate = static_cast<double>(accel_faults)
            / ticksToSec(elapsed);
    }
    const Distribution &latency = sys.iommu().faultLatency();
    r.fault_latency_mean_us =
        latency.mean() / static_cast<double>(kTicksPerUs);
    r.fault_latency_sd_us =
        latency.stddev() / static_cast<double>(kTicksPerUs);
    return r;
}

RunResult
runCell(const std::string &cpu_app, const std::string &gpu_app,
        const ExperimentConfig &config, MeasureMode mode)
{
    SystemConfig sys_config =
        config.base_system != nullptr ? *config.base_system
                                      : SystemConfig{};
    sys_config.seed = config.seed;
    sys_config.applyMitigations(config.mitigation);
    if (config.qos_threshold > 0.0)
        sys_config.enableQos(config.qos_threshold);
    // ExperimentConfig is the sole authority on arming the invariant
    // layer for experiment runs: a cell that leaves this false stays
    // unarmed even when HISS_CHECK=ON flips the SystemConfig default
    // (tests/test_invariants.cc ExperimentConfigArmsTheMonitor).
    sys_config.check_invariants = config.check_invariants;
    if (config.fault.enabled())
        sys_config.fault = config.fault;

    HeteroSystem sys(sys_config);

    CpuApp *app = nullptr;
    if (!cpu_app.empty()) {
        if (mode == MeasureMode::GpuOnly)
            fatal("ExperimentRunner: CPU app given in GpuOnly mode");
        CpuAppParams params = parsec::params(cpu_app);
        if (mode == MeasureMode::GpuPrimary)
            params.iterations = kEndlessIterations;
        app = &sys.addCpuApp(params);
        app->start();
    } else if (mode == MeasureMode::CpuPrimary
               || mode == MeasureMode::CpuOnly) {
        fatal("ExperimentRunner: CPU-measuring mode without a CPU app");
    }

    const bool rate_based = gpu_app == "ubench";
    if (!gpu_app.empty()) {
        if (mode == MeasureMode::CpuOnly)
            fatal("ExperimentRunner: GPU app given in CpuOnly mode");
        const GpuWorkloadParams workload = gpu_suite::params(gpu_app);
        const bool loop = mode == MeasureMode::CpuPrimary || rate_based;
        sys.launchGpu(workload, config.gpu_demand_paging, loop);
        for (int i = 0; i < config.extra_accelerators; ++i)
            sys.addAccelerator().launch(workload,
                                        config.gpu_demand_paging, true);
    } else if (mode == MeasureMode::GpuPrimary
               || mode == MeasureMode::GpuOnly) {
        fatal("ExperimentRunner: GPU-measuring mode without a GPU app");
    }

    RunResult result;
    bool finished = true;
    switch (mode) {
      case MeasureMode::CpuPrimary:
      case MeasureMode::CpuOnly:
        finished = sys.runUntilCondition([app] { return app->done(); },
                                         config.max_sim_time);
        result = extractResult(sys, sys.now());
        // A capped run reports elapsed time as a runtime lower bound.
        result.cpu_runtime_ms = app->done()
            ? ticksToMs(app->completionTime()) : ticksToMs(sys.now());
        break;
      case MeasureMode::GpuPrimary:
      case MeasureMode::GpuOnly:
        if (rate_based) {
            sys.runUntil(config.rate_window);
            result = extractResult(sys, sys.now());
            result.gpu_runtime_ms = ticksToMs(config.rate_window);
        } else {
            Gpu &gpu = sys.gpu();
            finished = sys.runUntilCondition(
                [&gpu] { return gpu.kernelsCompleted() >= 1; },
                config.max_sim_time);
            result = extractResult(sys, sys.now());
            result.gpu_runtime_ms = gpu.kernelsCompleted() >= 1
                ? ticksToMs(gpu.firstCompletionTime())
                : ticksToMs(sys.now());
        }
        break;
    }
    result.hit_time_cap = !finished && sys.now() >= config.max_sim_time;
    if (result.hit_time_cap)
        warn("experiment %s/%s hit the simulated-time cap",
             cpu_app.c_str(), gpu_app.c_str());
    return result;
}

} // namespace

RunResult
ExperimentRunner::run(const std::string &cpu_app,
                      const std::string &gpu_app,
                      const ExperimentConfig &config, MeasureMode mode)
{
    try {
        return runCell(cpu_app, gpu_app, config, mode);
    } catch (const std::exception &e) {
        // Name the seed and config so a crashing worker of a batch
        // can be rerun verbatim.
        const ExperimentCell cell{cpu_app, gpu_app, config, mode, 1};
        std::fprintf(stderr, "hiss: run failed: %s\nhiss:   %s\n",
                     e.what(), cellRepro(cell).c_str());
        throw;
    }
}

RunResult
ExperimentRunner::average(const std::vector<RunResult> &runs)
{
    if (runs.empty())
        fatal("ExperimentRunner: nothing to average");
    const auto reps = static_cast<std::uint64_t>(runs.size());
    RunResult avg;
    std::vector<std::uint64_t> per_core;
    for (const RunResult &r : runs) {
        avg.hit_time_cap = avg.hit_time_cap || r.hit_time_cap;
        for (const auto field : kMeanFields)
            avg.*field += r.*field;
        for (const auto field : kCountFields)
            avg.*field += r.*field;
        if (per_core.size() < r.ssr_irqs_per_core.size())
            per_core.resize(r.ssr_irqs_per_core.size(), 0);
        for (std::size_t c2 = 0; c2 < r.ssr_irqs_per_core.size(); ++c2)
            per_core[c2] += r.ssr_irqs_per_core[c2];
    }
    for (const auto field : kMeanFields)
        avg.*field /= static_cast<double>(reps);
    for (const auto field : kCountFields)
        avg.*field /= reps;
    for (std::uint64_t &c : per_core)
        c /= reps;
    avg.ssr_irqs_per_core = std::move(per_core);
    return avg;
}

} // namespace hiss
