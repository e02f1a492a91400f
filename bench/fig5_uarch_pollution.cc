/**
 * @file
 * Fig. 5: microarchitectural effects of GPU SSRs on user-level CPU
 * execution — the increase in (a) L1D miss rate and (b) branch
 * misprediction rate of each PARSEC application while the
 * microbenchmark generates SSRs.
 *
 * Paper: L1D miss-rate increases reach ~50 %; branch misprediction
 * increases reach ~25-30 %. Both are relative increases over the
 * same pair without SSRs, and arise from SSR handlers polluting the
 * shared structures (Fig. 2's indirect overhead 'b').
 */

#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

std::vector<ExperimentCell>
cells(const FigureArgs &args)
{
    std::vector<ExperimentCell> out;
    for (const auto &cpu : parsec::benchmarkNames()) {
        out.push_back(args.cpuBaseline(cpu));
        out.push_back(args.cell(cpu, "ubench", MeasureMode::CpuPrimary));
    }
    return out;
}

void
print(const FigureArgs &args, const Results &results)
{
    banner(
        "Fig. 5: user-level L1D miss and branch mispredict increases "
        "from ubench SSRs",
        "(a) L1D miss-rate increase up to ~50 %; (b) branch "
        "misprediction increase up to ~30 %");

    std::printf("%-14s %12s %12s %14s %12s %12s %14s\n", "cpu_app",
                "L1D_base", "L1D_ssr", "L1D_incr(%)", "bp_base",
                "bp_ssr", "bp_incr(%)");
    for (const auto &cpu : parsec::benchmarkNames()) {
        const RunResult &clean = results[args.cpuBaseline(cpu)];
        const RunResult &ssr =
            results[args.cell(cpu, "ubench", MeasureMode::CpuPrimary)];
        const double l1d_incr = clean.user_l1d_miss_rate > 0
            ? (ssr.user_l1d_miss_rate / clean.user_l1d_miss_rate - 1.0)
                * 100.0
            : 0.0;
        const double bp_incr = clean.user_branch_miss_rate > 0
            ? (ssr.user_branch_miss_rate / clean.user_branch_miss_rate
               - 1.0) * 100.0
            : 0.0;
        std::printf("%-14s %12.4f %12.4f %14.1f %12.4f %12.4f %14.1f\n",
                    cpu.c_str(), clean.user_l1d_miss_rate,
                    ssr.user_l1d_miss_rate, l1d_incr,
                    clean.user_branch_miss_rate,
                    ssr.user_branch_miss_rate, bp_incr);
    }
}

} // namespace

const Figure kFig5 = {"fig5",
                      "user-level L1D miss and branch mispredict increases",
                      2, cells, print};

} // namespace hiss::bench
