/**
 * @file
 * Fig. 12: the backpressure-based QoS governor (Section VI).
 *
 * (a) CPU application performance while ubench generates SSRs, under
 *     the default (no QoS) and throttling thresholds th_25 / th_5 /
 *     th_1 (cap SSR CPU time at 25 % / 5 % / 1 %). Each bar is
 *     normalized to the app running with ubench generating no SSRs.
 *     Paper: th_1 cuts the mean CPU loss from 28 % to under 4 %.
 * (b) ubench throughput (SSR rate vs idle CPUs, unthrottled) at the
 *     same settings. Paper: th_1 leaves the accelerator at ~5 % of
 *     its unhindered throughput.
 */

#include <iostream>
#include <utility>
#include <vector>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

const std::vector<std::pair<std::string, double>> kSettings = {
    {"default", 0.0},
    {"th_25", 0.25},
    {"th_5", 0.05},
    {"th_1", 0.01},
};

ExperimentCell
throttled(const FigureArgs &args, const std::string &cpu,
          double threshold, MeasureMode mode)
{
    ExperimentConfig config;
    config.qos_threshold = threshold;
    return args.cell(cpu, "ubench", mode, config);
}

std::vector<ExperimentCell>
cells(const FigureArgs &args)
{
    std::vector<ExperimentCell> out = {args.gpuAlone("ubench")};
    for (const auto &cpu : parsec::benchmarkNames()) {
        out.push_back(args.cpuBaseline(cpu));
        for (const auto &[label, threshold] : kSettings)
            for (const MeasureMode mode :
                 {MeasureMode::CpuPrimary, MeasureMode::GpuPrimary})
                out.push_back(throttled(args, cpu, threshold, mode));
    }
    return out;
}

void
print(const FigureArgs &args, const Results &results)
{
    banner(
        "Fig. 12: CPU QoS via SSR backpressure (default/th_25/th_5/"
        "th_1)",
        "th_1: mean CPU loss < 4 % (from 28 %); ubench throughput "
        "drops to ~5 % of unhindered");

    const double idle_rate = results[args.gpuAlone("ubench")].gpu_ssr_rate;

    std::vector<std::string> headers = {"cpu_app"};
    for (const auto &[label, threshold] : kSettings)
        headers.push_back(label);
    TablePrinter cpu_table(headers);
    TablePrinter gpu_table(headers);

    std::vector<std::vector<double>> cpu_cols(kSettings.size());
    std::vector<std::vector<double>> gpu_cols(kSettings.size());

    for (const auto &cpu : parsec::benchmarkNames()) {
        const double baseline_ms =
            results[args.cpuBaseline(cpu)].cpu_runtime_ms;

        std::vector<double> cpu_row;
        std::vector<double> gpu_row;
        for (std::size_t s = 0; s < kSettings.size(); ++s) {
            const RunResult &c = results[throttled(
                args, cpu, kSettings[s].second, MeasureMode::CpuPrimary)];
            const double cpu_perf =
                normalizedPerf(baseline_ms, c.cpu_runtime_ms);
            cpu_row.push_back(cpu_perf);
            cpu_cols[s].push_back(cpu_perf);

            const RunResult &g = results[throttled(
                args, cpu, kSettings[s].second, MeasureMode::GpuPrimary)];
            const double gpu_perf = g.gpu_ssr_rate / idle_rate;
            gpu_row.push_back(gpu_perf);
            gpu_cols[s].push_back(gpu_perf);
        }
        cpu_table.addRow(cpu, cpu_row);
        gpu_table.addRow(cpu, gpu_row);
    }

    std::vector<double> cpu_gmeans;
    std::vector<double> gpu_gmeans;
    for (std::size_t s = 0; s < kSettings.size(); ++s) {
        cpu_gmeans.push_back(geomean(cpu_cols[s]));
        gpu_gmeans.push_back(geomean(gpu_cols[s]));
    }
    cpu_table.addRow("gmean", cpu_gmeans);
    gpu_table.addRow("gmean", gpu_gmeans);

    std::printf("--- (a) CPU application performance "
                "(vs no-SSR baseline) ---\n");
    cpu_table.print(std::cout);
    std::printf("\n--- (b) ubench throughput "
                "(vs idle-CPU unthrottled) ---\n");
    gpu_table.print(std::cout);

    std::printf("\nMean CPU loss: default %.1f %%, th_1 %.1f %% "
                "(paper: 28 %% -> < 4 %%).\n",
                (1.0 - cpu_gmeans[0]) * 100.0,
                (1.0 - cpu_gmeans[3]) * 100.0);
    std::printf("ubench throughput at th_1: %.1f %% of unhindered "
                "(paper: ~5 %%).\n", gpu_gmeans[3] * 100.0);
}

} // namespace

const Figure kFig12 = {"fig12", "CPU QoS via SSR backpressure", 2, cells,
                       print};

} // namespace hiss::bench
