#include "core/experiment.h"

#include <cstdio>

#include "core/cell_key.h"
#include "core/snapshot_cache.h"
#include "core/system.h"
#include "sim/logging.h"
#include "workloads/gpu_suite.h"
#include "workloads/parsec.h"

namespace hiss {
namespace {

/** Iteration count that effectively never completes within a run. */
constexpr std::uint64_t kEndlessIterations = 1'000'000'000ULL;

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
    for (std::size_t i = 0; i < sys.numExtraAccelerators(); ++i)
        r.aborted_wavefronts += sys.extraAccelerator(i).abortedWavefronts();
    if (elapsed > 0)
        r.gpu_ssr_rate = static_cast<double>(r.faults_resolved)
            / ticksToSec(elapsed);
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

    // Warm-state cut: advance to warmup_ticks before measuring. The
    // first cell with a given (config fingerprint, warmup) key
    // simulates the prefix and publishes it; later cells restore the
    // snapshot, which is bit-identical to having simulated it (the
    // snapshot round-trip contract, tests/test_snapshot.cc).
    if (config.warmup_ticks > 0) {
        if (config.warmup_ticks >= config.max_sim_time)
            fatal("ExperimentConfig: warmup_ticks (%llu) must be "
                  "below max_sim_time (%llu)",
                  static_cast<unsigned long long>(config.warmup_ticks),
                  static_cast<unsigned long long>(config.max_sim_time));
        if (rate_based && config.warmup_ticks >= config.rate_window)
            fatal("ExperimentConfig: warmup_ticks (%llu) must be "
                  "below rate_window (%llu)",
                  static_cast<unsigned long long>(config.warmup_ticks),
                  static_cast<unsigned long long>(config.rate_window));
        // checkMonitor(), not config.check_invariants: HISS_CHECK=ON
        // builds arm the monitor by default, and an armed monitor
        // refuses snapshots. Those cells warm up inline instead.
        if (config.snapshot_cache != nullptr
            && sys.checkMonitor() == nullptr) {
            char key[64];
            std::snprintf(key, sizeof key, "%016llx:%llu",
                          static_cast<unsigned long long>(
                              sys.configFingerprint()),
                          static_cast<unsigned long long>(
                              config.warmup_ticks));
            bool built_here = false;
            const std::string &blob =
                config.snapshot_cache->getOrBuild(key, [&] {
                    sys.runUntil(config.warmup_ticks);
                    built_here = true;
                    return sys.snapshotBytes();
                });
            if (!built_here)
                sys.restoreSnapshotBytes(blob);
        } else {
            sys.runUntil(config.warmup_ticks);
        }
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
    const int reps = static_cast<int>(runs.size());
    RunResult avg;
    std::vector<std::uint64_t> per_core;
    for (const RunResult &r : runs) {
        avg.hit_time_cap = avg.hit_time_cap || r.hit_time_cap;
        avg.elapsed_ms += r.elapsed_ms;
        avg.cpu_runtime_ms += r.cpu_runtime_ms;
        avg.gpu_runtime_ms += r.gpu_runtime_ms;
        avg.gpu_ssr_rate += r.gpu_ssr_rate;
        avg.cc6_fraction += r.cc6_fraction;
        avg.user_l1d_miss_rate += r.user_l1d_miss_rate;
        avg.user_branch_miss_rate += r.user_branch_miss_rate;
        avg.ssr_cpu_fraction += r.ssr_cpu_fraction;
        avg.total_irqs += r.total_irqs;
        avg.total_ipis += r.total_ipis;
        avg.ssr_interrupts += r.ssr_interrupts;
        avg.faults_resolved += r.faults_resolved;
        avg.msis_raised += r.msis_raised;
        avg.aborted_wavefronts += r.aborted_wavefronts;
        if (per_core.size() < r.ssr_irqs_per_core.size())
            per_core.resize(r.ssr_irqs_per_core.size(), 0);
        for (std::size_t c2 = 0; c2 < r.ssr_irqs_per_core.size(); ++c2)
            per_core[c2] += r.ssr_irqs_per_core[c2];
    }
    const auto n = static_cast<double>(reps);
    avg.elapsed_ms /= n;
    avg.cpu_runtime_ms /= n;
    avg.gpu_runtime_ms /= n;
    avg.gpu_ssr_rate /= n;
    avg.cc6_fraction /= n;
    avg.user_l1d_miss_rate /= n;
    avg.user_branch_miss_rate /= n;
    avg.ssr_cpu_fraction /= n;
    avg.total_irqs /= static_cast<std::uint64_t>(reps);
    avg.total_ipis /= static_cast<std::uint64_t>(reps);
    avg.ssr_interrupts /= static_cast<std::uint64_t>(reps);
    avg.faults_resolved /= static_cast<std::uint64_t>(reps);
    avg.msis_raised /= static_cast<std::uint64_t>(reps);
    avg.aborted_wavefronts /= static_cast<std::uint64_t>(reps);
    for (std::uint64_t &c : per_core)
        c /= static_cast<std::uint64_t>(reps);
    avg.ssr_irqs_per_core = std::move(per_core);
    return avg;
}

} // namespace hiss
