/**
 * @file
 * Fig. 6: performance of the three GPU-SSR-overhead mitigations,
 * each in isolation, normalized to the default configuration.
 *
 *   (a/b) interrupt steering to a single core  (Section V-A)
 *   (c/d) interrupt coalescing, 13 us window   (Section V-B)
 *   (e/f) monolithic bottom-half handler       (Section V-C)
 *
 * Paper shapes: steering neither universally helps nor hurts CPU
 * apps and bottlenecks ubench's GPU throughput; coalescing helps CPU
 * under continuous interrupts (+13 % with sssp) but can slow
 * latency-bound GPU apps by up to 50 %; the monolithic handler
 * speeds the GPU (up to 2.3x) at the cost of more hardirq-context
 * CPU overhead under ubench (+35 %).
 */

#include <iostream>
#include <utility>
#include <vector>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

double
gpuMetric(const RunResult &r, const std::string &gpu)
{
    return gpu == "ubench" ? r.gpu_ssr_rate : 1.0 / r.gpu_runtime_ms;
}

std::vector<std::string>
cpuApps(const FigureArgs &args)
{
    return args.full ? parsec::benchmarkNames()
                     : std::vector<std::string>{"blackscholes", "facesim",
                                                "fluidanimate", "raytrace",
                                                "streamcluster",
                                                "swaptions", "x264"};
}

/** One panel per mitigation, each in isolation. */
std::vector<std::pair<std::string, ExperimentConfig>>
panels()
{
    std::vector<std::pair<std::string, ExperimentConfig>> out(3);
    out[0].first = "steer";
    out[0].second.mitigation.steer_to_single_core = true;
    out[1].first = "coalesce";
    out[1].second.mitigation.interrupt_coalescing = true;
    out[2].first = "monolithic";
    out[2].second.mitigation.monolithic_bottom_half = true;
    return out;
}

// Default-configuration references, then every mitigation panel.
std::vector<ExperimentCell>
cells(const FigureArgs &args)
{
    std::vector<ExperimentConfig> configs = {ExperimentConfig{}};
    for (const auto &[label, config] : panels())
        configs.push_back(config);
    std::vector<ExperimentCell> out;
    for (const ExperimentConfig &config : configs)
        for (const auto &cpu : cpuApps(args))
            for (const auto &gpu : gpu_suite::workloadNames())
                for (const MeasureMode mode :
                     {MeasureMode::CpuPrimary, MeasureMode::GpuPrimary})
                    out.push_back(args.cell(cpu, gpu, mode, config));
    return out;
}

void
print(const FigureArgs &args, const Results &results)
{
    banner(
        "Fig. 6: mitigation techniques in isolation "
        "(normalized to default)",
        "a/b steering, c/d coalescing (13 us), e/f monolithic bottom "
        "half; see file header for the paper's shapes");

    const auto &gpu_apps = gpu_suite::workloadNames();
    for (const auto &[label, config] : panels()) {
        std::vector<std::string> headers = {"cpu_app"};
        for (const auto &gpu : gpu_apps)
            headers.push_back(gpu);
        TablePrinter cpu_table(headers);
        TablePrinter gpu_table(headers);

        for (const auto &cpu : cpuApps(args)) {
            std::vector<double> cpu_row;
            std::vector<double> gpu_row;
            for (const auto &gpu : gpu_apps) {
                const auto at = [&](const ExperimentConfig &c,
                                    MeasureMode mode) -> const RunResult & {
                    return results[args.cell(cpu, gpu, mode, c)];
                };
                cpu_row.push_back(normalizedPerf(
                    at({}, MeasureMode::CpuPrimary).cpu_runtime_ms,
                    at(config, MeasureMode::CpuPrimary).cpu_runtime_ms));
                gpu_row.push_back(
                    gpuMetric(at(config, MeasureMode::GpuPrimary), gpu)
                    / gpuMetric(at({}, MeasureMode::GpuPrimary), gpu));
            }
            cpu_table.addRow(cpu, cpu_row);
            gpu_table.addRow(cpu, gpu_row);
        }

        std::printf("\n--- %s: CPU app performance vs default ---\n",
                    label.c_str());
        cpu_table.print(std::cout);
        std::printf("\n--- %s: GPU app performance vs default ---\n",
                    label.c_str());
        gpu_table.print(std::cout);
    }

    if (!args.full)
        std::printf("\n(7 of 13 CPU apps shown; pass --full for the "
                    "complete sweep)\n");
}

} // namespace

const Figure kFig6 = {"fig6", "mitigation techniques in isolation", 1,
                      cells, print};

} // namespace hiss::bench
