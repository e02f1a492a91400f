/**
 * @file
 * Fig. 3a: normalized performance of CPU-only applications (PARSEC)
 * under SSRs (page faults) from concurrently running GPU workloads.
 *
 * Each cell: CPU app runtime with the GPU app generating SSRs,
 * normalized to the same pair with the GPU using pinned memory (no
 * SSRs). Bars below 1 are SSR-induced slowdown. Paper headlines:
 * up to -31 % from a real GPU app (fluidanimate+sssp), -44 % from
 * the microbenchmark (x264+ubench); means -12 % / -28 %.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

std::vector<ExperimentCell>
cells(const FigureArgs &args)
{
    std::vector<ExperimentCell> out;
    for (const auto &cpu : parsec::benchmarkNames()) {
        out.push_back(args.cpuBaseline(cpu));
        for (const auto &gpu : gpu_suite::workloadNames())
            out.push_back(args.cell(cpu, gpu, MeasureMode::CpuPrimary));
    }
    return out;
}

void
print(const FigureArgs &args, const Results &results)
{
    banner(
        "Fig. 3a: CPU application performance under GPU SSRs",
        "Normalized perf (1/runtime) vs the same pair without SSRs; "
        "worst 0.56 (x264+ubench), sssp col min 0.69, means 0.88/0.72");

    std::vector<std::string> headers = {"cpu_app"};
    for (const auto &gpu : gpu_suite::workloadNames())
        headers.push_back(gpu);
    TablePrinter table(headers);

    std::vector<std::vector<double>> columns(
        gpu_suite::workloadNames().size());

    for (const auto &cpu : parsec::benchmarkNames()) {
        const RunResult &baseline = results[args.cpuBaseline(cpu)];
        std::vector<double> row;
        std::size_t column = 0;
        for (const auto &gpu : gpu_suite::workloadNames()) {
            const RunResult &r =
                results[args.cell(cpu, gpu, MeasureMode::CpuPrimary)];
            const double perf = normalizedPerf(baseline.cpu_runtime_ms,
                                               r.cpu_runtime_ms);
            row.push_back(perf);
            columns[column++].push_back(perf);
        }
        table.addRow(cpu, row);
    }

    std::vector<double> gmeans;
    for (const auto &column : columns)
        gmeans.push_back(geomean(column));
    table.addRow("gmean", gmeans);

    table.print(std::cout);

    double worst = 1.0;
    for (const auto &column : columns)
        for (const double v : column)
            worst = std::min(worst, v);
    std::printf("\nWorst cell: %.3f (paper: 0.56). "
                "ubench column gmean: %.3f (paper ~0.72).\n",
                worst, gmeans.back());
}

} // namespace

const Figure kFig3a = {"fig3a", "CPU application performance under GPU SSRs",
                       2, cells, print};

} // namespace hiss::bench
