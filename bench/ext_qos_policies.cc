/**
 * @file
 * Extension: throttling-policy comparison.
 *
 * The paper's governor applies exponential backoff (Fig. 11) and
 * leaves "more advanced QoS techniques" to future work. This
 * harness compares that policy against a token-bucket variant at
 * the same budgets: both must bound the SSR CPU fraction, but the
 * token bucket services requests at a steadier rate (lower fault
 * latency jitter) where exponential backoff alternates bursts and
 * long stalls.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

constexpr double kThresholds[] = {0.25, 0.05, 0.01};

/**
 * facesim beside looping ubench over a 30 ms window, the governor at
 * @p threshold under exponential backoff or a token bucket.
 */
ExperimentCell
row(const FigureArgs &args, bool bucket, double threshold)
{
    // Static storage: cells hold base_system by pointer.
    static const SystemConfig kTokenBucket = [] {
        SystemConfig base;
        base.kernel.qos.policy = ThrottlePolicy::TokenBucket;
        return base;
    }();
    ExperimentConfig config;
    config.qos_threshold = threshold;
    config.rate_window = msToTicks(30);
    if (bucket)
        config.base_system = &kTokenBucket;
    return args.cell("facesim", "ubench", MeasureMode::GpuPrimary, config);
}

std::vector<ExperimentCell>
cells(const FigureArgs &args)
{
    std::vector<ExperimentCell> out;
    for (const double threshold : kThresholds)
        for (const bool bucket : {false, true})
            out.push_back(row(args, bucket, threshold));
    return out;
}

void
print(const FigureArgs &args, const Results &results)
{
    banner(
        "Extension: exponential backoff vs token-bucket throttling",
        "Section VI future work: 'more advanced QoS techniques are "
        "warranted'");

    std::printf("%-12s %-10s %12s %12s %14s %14s\n", "policy",
                "budget", "ssr_cpu(%)", "faults/s", "latency_us",
                "latency_sd");
    for (const double threshold : kThresholds) {
        for (const bool bucket : {false, true}) {
            const RunResult &r = results[row(args, bucket, threshold)];
            std::printf("%-12s %-10.2f %12.1f %12.0f %14.1f %14.1f\n",
                        bucket ? "bucket" : "backoff", threshold,
                        r.ssr_cpu_fraction * 100.0, r.gpu_ssr_rate,
                        r.fault_latency_mean_us, r.fault_latency_sd_us);
        }
    }
    std::printf("\nBoth policies respect the budget; the token "
                "bucket trades the backoff policy's burst-and-stall "
                "pattern for a steadier service rate (lower latency "
                "standard deviation at tight budgets).\n");
}

} // namespace

const Figure kExtQosPolicies = {
    "ext_qos_policies", "exponential backoff vs token-bucket throttling", 1,
    cells, print};

} // namespace hiss::bench
