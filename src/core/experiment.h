/**
 * @file
 * Experiment runner: the paper's measurement methodology.
 *
 * Runs a CPU application and a GPU application concurrently (the
 * paper's independent-workload pairs, Section III) under a chosen
 * configuration and extracts the observables every figure needs:
 * runtimes, CC6 residency, user-level L1D/branch-predictor rates,
 * interrupt/IPI counts, and SSR throughput. The workload that is
 * not being measured loops so interference is sustained for the
 * whole measurement.
 */

#ifndef HISS_CORE_EXPERIMENT_H_
#define HISS_CORE_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"

namespace hiss {

/** Which workload's completion ends the measurement. */
enum class MeasureMode {
    CpuPrimary, ///< CPU app runs to completion; GPU app loops.
    GpuPrimary, ///< GPU app measured; CPU app runs continuously.
    GpuOnly,    ///< GPU app alone (idle CPUs).
    CpuOnly,    ///< CPU app alone (no GPU workload).
};

/** One experiment cell's configuration. */
struct ExperimentConfig
{
    MitigationConfig mitigation;

    /** QoS off unless qos_threshold > 0. */
    double qos_threshold = 0.0;

    std::uint64_t seed = 1;

    /** false = pinned memory: the GPU generates no SSRs (baselines). */
    bool gpu_demand_paging = true;

    /** Measurement window for rate-based workloads (ubench). */
    Tick rate_window = msToTicks(40);

    /** Hard cap on simulated time (safety). */
    Tick max_sim_time = msToTicks(600);

    /**
     * Extra accelerators sharing the IOMMU/SSR path, each running
     * the same GPU workload (the paper's accelerator-rich-SoC
     * projection). Ignored when no GPU app is given.
     */
    int extra_accelerators = 0;

    /** Arm the runtime invariant layer (src/check) for this cell. */
    bool check_invariants = false;

    /** Fault-injection schedule (disabled by default). */
    FaultPlan fault;

    /** Override the default testbed (leave nullptr for Table II). */
    const SystemConfig *base_system = nullptr;
};

/** Observables extracted from one run. */
struct RunResult
{
    bool hit_time_cap = false;

    /** Simulated time the measurement covered. */
    double elapsed_ms = 0.0;

    /** CPU app completion time (CpuPrimary/CpuOnly), ms. */
    double cpu_runtime_ms = 0.0;

    /** GPU first-kernel completion time (GpuPrimary/GpuOnly), ms. */
    double gpu_runtime_ms = 0.0;

    /** Resolved SSRs per second (ubench's performance metric). */
    double gpu_ssr_rate = 0.0;

    /** Mean CC6 residency fraction across cores. */
    double cc6_fraction = 0.0;

    /** User-attributed L1D miss rate / branch mispredict rate. */
    double user_l1d_miss_rate = 0.0;
    double user_branch_miss_rate = 0.0;

    /** Fraction of aggregate CPU time spent handling SSRs. */
    double ssr_cpu_fraction = 0.0;

    std::uint64_t total_irqs = 0;
    std::uint64_t total_ipis = 0;
    std::uint64_t ssr_interrupts = 0;
    std::uint64_t faults_resolved = 0;
    std::uint64_t msis_raised = 0;

    /** Wavefronts the fault-recovery watchdog gave up on (all GPUs). */
    std::uint64_t aborted_wavefronts = 0;

    /** Per-core SSR interrupt deliveries (Section IV-C). */
    std::vector<std::uint64_t> ssr_irqs_per_core;
};

/** Runs experiment cells. */
class ExperimentRunner
{
  public:
    /**
     * Run one cell.
     * @param cpu_app PARSEC benchmark name ("" = none).
     * @param gpu_app GPU workload name ("" = none).
     */
    static RunResult run(const std::string &cpu_app,
                         const std::string &gpu_app,
                         const ExperimentConfig &config,
                         MeasureMode mode);

    /**
     * Fold repetition results (seeds seed, seed+1, ...) into their
     * average, in input order. ExperimentBatch applies it to every
     * cell with reps > 1 (the paper runs each combination 3 times).
     */
    static RunResult average(const std::vector<RunResult> &runs);
};

} // namespace hiss

#endif // HISS_CORE_EXPERIMENT_H_
