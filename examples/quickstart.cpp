/**
 * @file
 * Quickstart: measure how a GPU workload's system service requests
 * slow down an unrelated CPU application.
 *
 * Runs x264 alongside the SSR microbenchmark (ubench) twice — once
 * with the GPU using pinned memory (no SSRs) and once with demand
 * paging (SSRs) — and prints the interference the paper's Fig. 3a
 * reports.
 */

#include <cstdio>
#include <vector>

#include "core/hiss.h"

int
main()
{
    using namespace hiss;

    std::printf("HISS quickstart: x264 (CPU) vs ubench (GPU)\n\n");

    // Interference: GPU demand-pages -> every access is an SSR.
    ExperimentConfig ssr_config;
    ssr_config.seed = 7;
    // Baseline: GPU runs with pinned memory -> no SSRs reach the CPU.
    ExperimentConfig baseline_config = ssr_config;
    baseline_config.gpu_demand_paging = false;

    // Each cell averages 3 runs (seeds 7-9); all 6 run in parallel.
    const std::vector<RunResult> results = ExperimentBatch().run(
        {{"x264", "ubench", baseline_config, MeasureMode::CpuPrimary, 3},
         {"x264", "ubench", ssr_config, MeasureMode::CpuPrimary, 3}});
    const RunResult &baseline = results[0];
    const RunResult &ssr = results[1];

    const double perf =
        normalizedPerf(baseline.cpu_runtime_ms, ssr.cpu_runtime_ms);

    std::printf("x264 runtime without GPU SSRs : %8.2f ms\n",
                baseline.cpu_runtime_ms);
    std::printf("x264 runtime with GPU SSRs    : %8.2f ms\n",
                ssr.cpu_runtime_ms);
    std::printf("normalized CPU performance    : %8.3f  (1.0 = no loss)\n",
                perf);
    std::printf("CPU time spent handling SSRs  : %8.1f %%\n",
                ssr.ssr_cpu_fraction * 100.0);
    std::printf("SSR interrupts taken          : %8llu\n",
                static_cast<unsigned long long>(ssr.ssr_interrupts));
    return 0;
}
