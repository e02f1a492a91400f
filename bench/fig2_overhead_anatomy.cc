/**
 * @file
 * Fig. 2 (quantified): anatomy of GPU service request overheads.
 *
 * The paper's Fig. 2 is a conceptual timeline: hardirq top half on
 * one core, IPI-woken bottom half on another, deferred worker on a
 * third, with direct (kernel execution, mode switches) and indirect
 * (pollution) overheads. This harness measures that timeline in the
 * model: the per-stage latency decomposition of every serviced SSR
 * and the direct CPU overhead split, for each GPU workload against
 * an idle system and against a fully loaded one.
 */

#include <cstdio>
#include <memory>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

void
runCase(const std::string &gpu, const std::string &cpu)
{
    SystemConfig config;
    config.seed = 3;
    HeteroSystem sys(config);
    CpuApp *app = nullptr;
    if (!cpu.empty()) {
        CpuAppParams params = parsec::params(cpu);
        params.iterations = 1'000'000'000ULL;
        app = &sys.addCpuApp(params);
        app->start();
    }
    sys.launchGpu(gpu_suite::params(gpu), true, true);
    sys.runUntil(msToTicks(30));
    sys.finalizeStats();

    const SsrStageStats &stages =
        sys.kernel().services().stageStats();
    const auto mean_us = [](const Distribution *d) {
        return d->count() > 0 ? d->mean() / 1000.0 : 0.0;
    };
    std::printf("%-8s %-14s %10.2f %10.2f %10.2f %10.2f %10.2f %8llu\n",
                gpu.c_str(), cpu.empty() ? "(idle)" : cpu.c_str(),
                mean_us(stages.issue_to_drain),
                mean_us(stages.drain_to_queue),
                mean_us(stages.queue_to_service),
                mean_us(stages.service_to_done),
                mean_us(stages.total),
                static_cast<unsigned long long>(
                    stages.total->count()));
}

/** Measures HeteroSystem runs directly; declares no cells. */
void
print(const FigureArgs &, const Results &)
{
    banner(
        "Fig. 2 (quantified): per-stage SSR pipeline latency (us)",
        "Top half runs in hardirq on the interrupted core; the "
        "bottom half is woken (IPI if remote); a kworker performs "
        "the service. Busy CPUs lengthen the wake/scheduling stages.");

    std::printf("%-8s %-14s %10s %10s %10s %10s %10s %8s\n", "gpu",
                "cpu_load", "msi+irq", "bh_stage", "wq_wait",
                "service", "total", "n");
    for (const std::string gpu : {"sssp", "bpt", "ubench"}) {
        runCase(gpu, "");
        runCase(gpu, "streamcluster");
    }

    std::printf("\nDirect CPU overhead split for ubench (idle system, "
                "30 ms):\n");
    SystemConfig config;
    config.seed = 4;
    HeteroSystem sys(config);
    sys.launchGpu(gpu_suite::params("ubench"), true, true);
    sys.runUntil(msToTicks(30));
    sys.finalizeStats();
    Tick kernel_total = 0;
    Tick ssr_total = 0;
    std::uint64_t irqs = 0;
    std::uint64_t ipis = 0;
    std::uint64_t mode_switches = 0;
    for (int c = 0; c < sys.kernel().numCores(); ++c) {
        CpuCore &core = sys.kernel().core(c);
        kernel_total += core.kernelTicks();
        ssr_total += core.ssrTicks();
        irqs += core.irqCount();
        ipis += core.ipiCount();
        mode_switches += static_cast<std::uint64_t>(
            sys.stats().valueOf("core" + std::to_string(c)
                                + ".mode_switches"));
    }
    std::printf("  kernel time: %.2f ms (%.1f %% of 4 cores x 30 ms); "
                "SSR share %.2f ms\n",
                ticksToMs(kernel_total),
                100.0 * static_cast<double>(kernel_total)
                    / (4.0 * static_cast<double>(msToTicks(30))),
                ticksToMs(ssr_total));
    std::printf("  interrupts: %llu (%llu IPIs), mode switches: %llu\n",
                static_cast<unsigned long long>(irqs),
                static_cast<unsigned long long>(ipis),
                static_cast<unsigned long long>(mode_switches));
}

} // namespace

const Figure kFig2 = {"fig2", "per-stage SSR pipeline latency (quantified)",
                      1, nullptr, print};

} // namespace hiss::bench
