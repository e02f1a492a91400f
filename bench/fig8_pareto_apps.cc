/**
 * @file
 * Fig. 8: Pareto trade-off between mitigation combinations for the
 * non-microbenchmark GPU applications (bfs, bpt, spmv, sssp,
 * xsbench).
 *
 * X axis: geomean of CPU workload performance (vs no-SSR baseline)
 * across CPU apps and GPU apps. Y axis: geomean of GPU performance
 * vs the default-configuration idle-CPU baseline. Paper findings:
 * the default is again not Pareto optimal; steering+coalescing buys
 * ~10 % CPU performance for a ~35 % GPU slowdown; monolithic
 * combinations favor the GPU.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

const std::vector<std::string> kGpuApps = {"bfs", "bpt", "spmv", "sssp",
                                           "xsbench"};

std::vector<std::string>
cpuApps(const FigureArgs &args)
{
    return args.full ? parsec::benchmarkNames()
                     : std::vector<std::string>{"facesim", "raytrace",
                                                "streamcluster",
                                                "swaptions", "x264"};
}

// Baselines (no-SSR CPU runtimes, default idle-CPU GPU times) and
// every mitigation combination.
std::vector<ExperimentCell>
cells(const FigureArgs &args)
{
    std::vector<ExperimentCell> out;
    for (const auto &cpu : cpuApps(args))
        out.push_back(args.cpuBaseline(cpu));
    for (const auto &gpu : kGpuApps)
        out.push_back(args.gpuAlone(gpu));
    for (const MitigationConfig &mitigation :
         MitigationConfig::allCombinations())
        for (const auto &cpu : cpuApps(args))
            for (const auto &gpu : kGpuApps)
                for (const MeasureMode mode :
                     {MeasureMode::CpuPrimary, MeasureMode::GpuPrimary})
                    out.push_back(args.cell(cpu, gpu, mode,
                                            withMitigation(mitigation)));
    return out;
}

void
print(const FigureArgs &args, const Results &results)
{
    banner(
        "Fig. 8: Pareto chart of mitigation combinations "
        "(non-ubench GPU apps)",
        "Default not Pareto optimal; steer+coalesce trades ~35 % GPU "
        "for ~10 % CPU; monolithic favors GPU");

    std::printf("%-28s %14s %14s\n", "configuration",
                "CPU perf (X)", "GPU perf (Y)");
    for (const MitigationConfig &mitigation :
         MitigationConfig::allCombinations()) {
        const ExperimentConfig config = withMitigation(mitigation);
        std::vector<double> cpu_perf;
        std::vector<double> gpu_perf;
        for (const auto &cpu : cpuApps(args)) {
            for (const auto &gpu : kGpuApps) {
                const auto at = [&](MeasureMode mode) -> const RunResult & {
                    return results[args.cell(cpu, gpu, mode, config)];
                };
                cpu_perf.push_back(normalizedPerf(
                    results[args.cpuBaseline(cpu)].cpu_runtime_ms,
                    at(MeasureMode::CpuPrimary).cpu_runtime_ms));
                gpu_perf.push_back(normalizedPerf(
                    results[args.gpuAlone(gpu)].gpu_runtime_ms,
                    at(MeasureMode::GpuPrimary).gpu_runtime_ms));
            }
        }
        std::printf("%-28s %14.3f %14.3f\n",
                    mitigation.label().c_str(), geomean(cpu_perf),
                    geomean(gpu_perf));
    }
    if (!args.full)
        std::printf("\n(5 of 13 CPU apps used; pass --full for the "
                    "complete sweep)\n");
}

} // namespace

const Figure kFig8 = {
    "fig8", "Pareto chart of mitigation combinations (other GPU apps)", 1,
    cells, print};

} // namespace hiss::bench
