/**
 * @file
 * Fig. 7: Pareto trade-off between all eight combinations of the
 * three mitigations, for the SSR microbenchmark.
 *
 * X axis: geomean (over CPU apps) of CPU workload performance while
 * ubench runs, normalized to the pair without SSRs. Y axis: geomean
 * of ubench's SSR rate relative to running with idle CPUs under the
 * default configuration. The paper finds the default configuration
 * is NOT Pareto optimal; coalescing+steering gives the best CPU
 * performance, and combinations with the monolithic handler favor
 * GPU throughput.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

std::vector<std::string>
cpuApps(const FigureArgs &args)
{
    return args.full ? parsec::benchmarkNames()
                     : std::vector<std::string>{"blackscholes", "facesim",
                                                "raytrace", "streamcluster",
                                                "swaptions", "x264"};
}

std::vector<ExperimentCell>
cells(const FigureArgs &args)
{
    std::vector<ExperimentCell> out = {args.gpuAlone("ubench")};
    for (const auto &cpu : cpuApps(args))
        out.push_back(args.cpuBaseline(cpu));
    for (const MitigationConfig &mitigation :
         MitigationConfig::allCombinations())
        for (const auto &cpu : cpuApps(args))
            for (const MeasureMode mode :
                 {MeasureMode::CpuPrimary, MeasureMode::GpuPrimary})
                out.push_back(args.cell(cpu, "ubench", mode,
                                        withMitigation(mitigation)));
    return out;
}

void
print(const FigureArgs &args, const Results &results)
{
    banner(
        "Fig. 7: Pareto chart of mitigation combinations (ubench)",
        "Default is not Pareto optimal; steer+coalesce maximizes CPU "
        "perf; monolithic combinations maximize GPU throughput");

    const double idle_rate = results[args.gpuAlone("ubench")].gpu_ssr_rate;
    std::printf("%-28s %14s %14s\n", "configuration",
                "CPU perf (X)", "ubench perf (Y)");
    for (const MitigationConfig &mitigation :
         MitigationConfig::allCombinations()) {
        const ExperimentConfig config = withMitigation(mitigation);
        std::vector<double> cpu_perf;
        std::vector<double> gpu_perf;
        for (const auto &cpu : cpuApps(args)) {
            const auto at = [&](MeasureMode mode) -> const RunResult & {
                return results[args.cell(cpu, "ubench", mode, config)];
            };
            cpu_perf.push_back(
                normalizedPerf(results[args.cpuBaseline(cpu)].cpu_runtime_ms,
                               at(MeasureMode::CpuPrimary).cpu_runtime_ms));
            gpu_perf.push_back(at(MeasureMode::GpuPrimary).gpu_ssr_rate
                               / idle_rate);
        }
        std::printf("%-28s %14.3f %14.3f\n",
                    mitigation.label().c_str(), geomean(cpu_perf),
                    geomean(gpu_perf));
    }
    if (!args.full)
        std::printf("\n(6 of 13 CPU apps used; pass --full for the "
                    "complete sweep)\n");
}

} // namespace

const Figure kFig7 = {"fig7",
                      "Pareto chart of mitigation combinations (ubench)",
                      1, cells, print};

} // namespace hiss::bench
