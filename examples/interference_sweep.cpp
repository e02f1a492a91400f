/**
 * @file
 * Interference sweep: every CPU application against every GPU
 * workload, printing normalized CPU performance (the paper's
 * Fig. 3a view) plus the SSR CPU-time fraction — a quick map of
 * which pairings suffer most.
 *
 * Usage: interference_sweep [reps]   (default 1 repetition)
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "core/hiss.h"
#include "sim/cli_args.h"

int
main(int argc, char **argv)
try {
    using namespace hiss;

    const int reps = argc > 1
        ? static_cast<int>(cli::parseInt("reps", argv[1], 1, 1000))
        : 1;

    // Per CPU app: the no-SSR baseline (same pairing, GPU uses pinned
    // memory), then one cell per GPU workload — all in one batch.
    ExperimentConfig pinned;
    pinned.gpu_demand_paging = false;
    const std::vector<std::string> &gpus = gpu_suite::workloadNames();
    std::vector<ExperimentCell> cells;
    for (const std::string &cpu : parsec::benchmarkNames()) {
        cells.push_back(
            {cpu, "ubench", pinned, MeasureMode::CpuPrimary, reps});
        for (const std::string &gpu : gpus)
            cells.push_back({cpu, gpu, {}, MeasureMode::CpuPrimary, reps});
    }
    const std::vector<RunResult> results = ExperimentBatch().run(cells);

    std::vector<std::string> headers = {"cpu_app"};
    headers.insert(headers.end(), gpus.begin(), gpus.end());
    TablePrinter perf_table(headers);
    TablePrinter ssr_table(headers);
    std::size_t next = 0;
    for (const std::string &cpu : parsec::benchmarkNames()) {
        const RunResult &base = results[next++];
        std::vector<double> perf_row;
        std::vector<double> ssr_row;
        for (std::size_t g = 0; g < gpus.size(); ++g) {
            const RunResult &r = results[next++];
            perf_row.push_back(
                normalizedPerf(base.cpu_runtime_ms, r.cpu_runtime_ms));
            ssr_row.push_back(r.ssr_cpu_fraction);
        }
        perf_table.addRow(cpu, perf_row);
        ssr_table.addRow(cpu, ssr_row);
    }

    std::printf("Normalized CPU performance under GPU SSRs "
                "(1.0 = no interference):\n\n");
    perf_table.print(std::cout);
    std::printf("\nFraction of CPU time consumed by SSR handling:\n\n");
    ssr_table.print(std::cout);
    return 0;
} catch (const hiss::FatalError &e) {
    std::fprintf(stderr, "interference_sweep: %s\n", e.what());
    return 1;
}
