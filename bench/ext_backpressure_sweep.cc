/**
 * @file
 * Ablation: the hardware outstanding-SSR limit.
 *
 * The paper's QoS mechanism rests on one observation: "each
 * accelerator has a hardware limit on the number of outstanding
 * SSRs", which makes backpressure possible. This harness sweeps that
 * limit and shows (1) unthrottled SSR throughput scaling with the
 * limit, and (2) that the QoS governor's effectiveness is preserved
 * regardless of the limit — it delays service, so any finite limit
 * eventually stalls the GPU.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

const std::vector<std::uint32_t> kLimits = {2, 4, 8, 16, 32, 64};

/**
 * ubench's SSR rate over a 25 ms window at limit @p i, with the QoS
 * governor off or at th_1.
 */
ExperimentCell
rate(const FigureArgs &args, std::size_t i, bool qos)
{
    // One base system per limit. Static storage: cells hold
    // base_system by pointer until the batch has run.
    static const std::vector<SystemConfig> kBases = [] {
        std::vector<SystemConfig> bases(kLimits.size());
        for (std::size_t k = 0; k < kLimits.size(); ++k)
            bases[k].gpu.max_outstanding = kLimits[k];
        return bases;
    }();
    ExperimentConfig config;
    config.base_system = &kBases[i];
    config.rate_window = msToTicks(25);
    if (qos)
        config.qos_threshold = 0.01;
    return args.gpuAlone("ubench", config);
}

std::vector<ExperimentCell>
cells(const FigureArgs &args)
{
    std::vector<ExperimentCell> out;
    for (std::size_t i = 0; i < kLimits.size(); ++i)
        for (const bool qos : {false, true})
            out.push_back(rate(args, i, qos));
    return out;
}

void
print(const FigureArgs &args, const Results &results)
{
    banner(
        "Ablation: outstanding-SSR hardware limit sweep",
        "Section VI: the limit exists on every accelerator and is "
        "the backpressure point the QoS governor exploits");

    std::printf("%-12s %16s %16s %12s\n", "limit", "rate (no QoS)",
                "rate (th_1)", "th_1/noQoS");
    for (std::size_t i = 0; i < kLimits.size(); ++i) {
        const double free_rate = results[rate(args, i, false)].gpu_ssr_rate;
        const double throttled = results[rate(args, i, true)].gpu_ssr_rate;
        std::printf("%-12u %16.0f %16.0f %12.3f\n", kLimits[i],
                    free_rate, throttled,
                    free_rate > 0 ? throttled / free_rate : 0.0);
    }
    std::printf("\nThroughput grows with the limit (more latency "
                "hiding), but th_1 pins the serviced rate to the CPU "
                "budget regardless: backpressure needs only a finite "
                "limit, not a particular value.\n");
}

} // namespace

const Figure kExtBackpressure = {"ext_backpressure",
                                 "outstanding-SSR hardware limit sweep", 2,
                                 cells, print};

} // namespace hiss::bench
