/**
 * @file
 * Extension: fault-rate sensitivity matrix.
 *
 * Sweeps the injected MSI drop probability (with the signal-loss and
 * kworker-stall classes riding along at the same rate, over a finite
 * PPR queue) and reports how CPU slowdown and the aborted-wavefront
 * count respond. The interesting result is the shape: recovery
 * (watchdog re-raise plus driver retry) keeps the chain flowing, so
 * CPU interference barely moves — the faults surface on the GPU as
 * wavefront aborts once stalled kworkers lose races with the request
 * watchdog.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

const std::vector<double> kDropRates = {0.0, 0.01, 0.05, 0.10, 0.20};

/** x264 alone (@p pair false) or beside sssp, at drop rate @p rate. */
ExperimentCell
x264(const FigureArgs &args, double rate, bool pair)
{
    ExperimentConfig config;
    if (rate > 0.0) {
        config.fault.irq_drop_prob = rate;
        config.fault.signal_loss_prob = rate;
        config.fault.kworker_stall_prob = rate;
        config.fault.ppr_queue_capacity = 8;
        config.fault.request_timeout = usToTicks(300.0);
    }
    return pair ? args.cell("x264", "sssp", MeasureMode::CpuPrimary, config)
                : args.cell("x264", "", MeasureMode::CpuOnly, config);
}

std::vector<ExperimentCell>
cells(const FigureArgs &args)
{
    std::vector<ExperimentCell> out;
    for (const double rate : kDropRates)
        for (const bool pair : {false, true})
            out.push_back(x264(args, rate, pair));
    return out;
}

void
print(const FigureArgs &args, const Results &results)
{
    banner(
        "Extension: fault rate vs. CPU slowdown and GPU aborts",
        "robustness of the SSR chain under injected device/IRQ "
        "faults (docs/MODEL.md failure model)");

    const double solo_base = results[x264(args, 0.0, false)].cpu_runtime_ms;
    std::printf("%-10s %14s %12s %14s %14s\n", "drop_p",
                "cpu pair (ms)", "slowdown", "aborted_wf",
                "ssr_cpu%");
    for (const double rate : kDropRates) {
        const RunResult &pair = results[x264(args, rate, true)];
        std::printf("%-10.2f %14.3f %12.3f %14llu %14.2f\n", rate,
                    pair.cpu_runtime_ms,
                    solo_base > 0.0 ? pair.cpu_runtime_ms / solo_base
                                    : 0.0,
                    static_cast<unsigned long long>(
                        pair.aborted_wavefronts),
                    100.0 * pair.ssr_cpu_fraction);
    }
    std::printf("\nMSI drops are absorbed by the device watchdog: the "
                "re-raise batches the PPR drain, so the CPU actually "
                "sees FEWER interrupts as drop_p grows and the "
                "slowdown eases toward solo. The cost lands on the "
                "GPU instead — stalled kworkers lose races with the "
                "request watchdog and the aborted-wavefront count "
                "climbs with the fault rate.\n");
}

} // namespace

const Figure kExtFaultMatrix = {"ext_fault_matrix",
                                "fault rate vs CPU slowdown and GPU aborts",
                                2, cells, print};

} // namespace hiss::bench
