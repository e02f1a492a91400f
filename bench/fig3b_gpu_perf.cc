/**
 * @file
 * Fig. 3b: normalized GPU performance when making SSRs while running
 * concurrently with CPU applications, normalized to the same GPU app
 * with idle CPUs.
 *
 * Paper headlines: host interference slows GPU work by up to 18 %
 * (sssp+streamcluster), 4 % on average; streamcluster's column mean
 * is -8 %; a few cells exceed 1 because busy (awake) CPUs respond
 * faster than sleeping ones. ubench's performance metric is its SSR
 * rate (paper Fig. 6 note).
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
    for (const auto &gpu : gpu_suite::workloadNames())
        out.push_back(args.gpuAlone(gpu));
    for (const auto &cpu : parsec::benchmarkNames())
        for (const auto &gpu : gpu_suite::workloadNames())
            out.push_back(args.cell(cpu, gpu, MeasureMode::GpuPrimary));
    return out;
}

void
print(const FigureArgs &args, const Results &results)
{
    banner(
        "Fig. 3b: GPU application performance vs idle-CPU baseline",
        "Worst 0.82 (sssp+streamcluster); mean -4 %; some cells > 1");

    std::vector<std::string> headers = {"cpu_app"};
    for (const auto &gpu : gpu_suite::workloadNames())
        headers.push_back(gpu);
    TablePrinter table(headers);

    // Idle-CPU baselines per GPU app.
    std::vector<double> idle_metric;
    for (const auto &gpu : gpu_suite::workloadNames()) {
        const RunResult &r = results[args.gpuAlone(gpu)];
        idle_metric.push_back(gpu == "ubench" ? r.gpu_ssr_rate
                                              : r.gpu_runtime_ms);
    }

    std::vector<std::vector<double>> columns(
        gpu_suite::workloadNames().size());
    for (const auto &cpu : parsec::benchmarkNames()) {
        std::vector<double> row;
        std::size_t column = 0;
        for (const auto &gpu : gpu_suite::workloadNames()) {
            const RunResult &r =
                results[args.cell(cpu, gpu, MeasureMode::GpuPrimary)];
            const double perf = gpu == "ubench"
                ? r.gpu_ssr_rate / idle_metric[column]
                : normalizedPerf(idle_metric[column],
                                 r.gpu_runtime_ms);
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

    double worst_real = 2.0;
    for (std::size_t c = 0; c + 1 < columns.size(); ++c)
        for (const double v : columns[c])
            worst_real = std::min(worst_real, v);
    double worst_ubench = 2.0;
    for (const double v : columns.back())
        worst_ubench = std::min(worst_ubench, v);
    std::printf("\nWorst real-app cell: %.3f (paper: 0.82, "
                "sssp+streamcluster). Worst ubench cell: %.3f.\n",
                worst_real, worst_ubench);
}

} // namespace

const Figure kFig3b = {"fig3b",
                       "GPU application performance vs idle-CPU baseline",
                       2, cells, print};

} // namespace hiss::bench
