/**
 * @file
 * Section IV-C: analysis of SSR overhead sources.
 *
 * Reproduces the two quantitative observations: (1) SSR interrupts
 * are distributed across all CPUs (/proc/interrupts), so every core
 * suffers direct overheads; and (2) inter-processor interrupts
 * explode when the microbenchmark creates SSRs (the paper measures a
 * 477x increase) because the top half wakes the bottom half on a
 * different core.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

std::vector<ExperimentCell>
cells(const FigureArgs &args)
{
    return {args.cell("streamcluster", "ubench", MeasureMode::CpuPrimary),
            args.cpuBaseline("streamcluster")};
}

void
print(const FigureArgs &args, const Results &results)
{
    banner(
        "Section IV-C: interrupt distribution and IPI amplification",
        "SSR interrupts evenly spread over all CPUs; 477x more IPIs "
        "when ubench creates SSRs");

    const RunResult &ssr = results[args.cell(
        "streamcluster", "ubench", MeasureMode::CpuPrimary)];
    const RunResult &no_ssr = results[args.cpuBaseline("streamcluster")];

    std::printf("SSR interrupt distribution across cores "
                "(busy system):\n");
    std::printf("%-8s %12s %10s\n", "core", "ssr_irqs", "share(%)");
    for (std::size_t c = 0; c < ssr.ssr_irqs_per_core.size(); ++c) {
        const double share = ssr.ssr_interrupts > 0
            ? 100.0
                * static_cast<double>(ssr.ssr_irqs_per_core[c])
                / static_cast<double>(ssr.ssr_interrupts)
            : 0.0;
        std::printf("CPU%-5zu %12llu %10.1f\n", c,
                    static_cast<unsigned long long>(
                        ssr.ssr_irqs_per_core[c]),
                    share);
    }

    const double rate_per_ms = ssr.elapsed_ms > 0
        ? static_cast<double>(ssr.total_ipis) / ssr.elapsed_ms : 0.0;
    const double base_rate_per_ms = no_ssr.elapsed_ms > 0
        ? static_cast<double>(no_ssr.total_ipis) / no_ssr.elapsed_ms
        : 0.0;
    const double amplification = base_rate_per_ms > 0
        ? rate_per_ms / base_rate_per_ms : 0.0;

    std::printf("\nIPI rate without SSRs: %8.2f /ms\n",
                base_rate_per_ms);
    std::printf("IPI rate with SSRs   : %8.2f /ms\n", rate_per_ms);
    std::printf("Amplification        : %8.1fx  (paper: 477x)\n",
                amplification);
}

} // namespace

const Figure kSec4c = {"sec4c",
                       "interrupt distribution and IPI amplification", 2,
                       cells, print};

} // namespace hiss::bench
