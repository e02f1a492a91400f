/**
 * @file
 * Fig. 4: CPU low-power (CC6) sleep-state residency with and without
 * GPU system service requests, while no CPU-only work runs.
 *
 * Paper headlines: SSRs always reduce sleep; bfs loses only ~14
 * points (clustered early faults), the other four applications lose
 * 23-30 points, and the microbenchmark collapses residency from
 * 86 % to 12 %.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

std::vector<ExperimentCell>
cells(const FigureArgs &args)
{
    std::vector<ExperimentCell> out;
    for (const auto &gpu : gpu_suite::workloadNames()) {
        out.push_back(args.gpuAlone(gpu, pinnedConfig()));
        out.push_back(args.gpuAlone(gpu));
    }
    return out;
}

void
print(const FigureArgs &args, const Results &results)
{
    banner(
        "Fig. 4: CC6 residency with and without GPU SSRs (idle CPUs)",
        "no_SSR ~86 %; bfs drops ~14 pts; bpt/spmv/sssp/xsbench drop "
        "23-30 pts; ubench 86 % -> 12 %");

    std::printf("%-10s %12s %12s %10s\n", "gpu_app", "no_SSR(%)",
                "gpu_SSR(%)", "drop(pts)");
    for (const auto &gpu : gpu_suite::workloadNames()) {
        const RunResult &no_ssr = results[args.gpuAlone(gpu, pinnedConfig())];
        const RunResult &ssr = results[args.gpuAlone(gpu)];
        std::printf("%-10s %12.1f %12.1f %10.1f\n", gpu.c_str(),
                    no_ssr.cc6_fraction * 100.0,
                    ssr.cc6_fraction * 100.0,
                    (no_ssr.cc6_fraction - ssr.cc6_fraction) * 100.0);
    }
}

} // namespace

const Figure kFig4 = {"fig4",
                      "CC6 residency with and without GPU SSRs (idle CPUs)",
                      2, cells, print};

} // namespace hiss::bench
