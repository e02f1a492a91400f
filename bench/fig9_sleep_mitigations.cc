/**
 * @file
 * Fig. 9: how the mitigation techniques affect CPU sleep states
 * while the microbenchmark generates SSRs (idle CPUs otherwise).
 *
 * Paper: no-SSR residency 86 %; default with SSRs 12 %; steering
 * raises it to ~50 % (only the irq/bottom-half cores stay awake);
 * the monolithic handler behaves similarly; coalescing alone barely
 * helps (all cores still interrupted); all three together reach
 * 57 %.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace hiss::bench {
namespace {

std::vector<ExperimentCell>
cells(const FigureArgs &args)
{
    std::vector<ExperimentCell> out = {
        args.gpuAlone("ubench", pinnedConfig())};
    for (const MitigationConfig &combo :
         MitigationConfig::allCombinations())
        out.push_back(args.gpuAlone("ubench", withMitigation(combo)));
    return out;
}

void
print(const FigureArgs &args, const Results &results)
{
    banner(
        "Fig. 9: CC6 residency under ubench SSRs per mitigation combo",
        "no_SSR 86 %, default 12 %, steer ~50 %, coalescing alone "
        "~no help, all three 57 %");

    const RunResult &no_ssr =
        results[args.gpuAlone("ubench", pinnedConfig())];
    std::printf("%-28s %12s\n", "configuration", "CC6(%)");
    std::printf("%-28s %12.1f\n", "ubench_no_SSR",
                no_ssr.cc6_fraction * 100.0);

    for (const MitigationConfig &combo :
         MitigationConfig::allCombinations())
        std::printf("%-28s %12.1f\n", combo.label().c_str(),
                    results[args.gpuAlone("ubench", withMitigation(combo))]
                            .cc6_fraction
                        * 100.0);
}

} // namespace

const Figure kFig9 = {"fig9",
                      "CC6 residency under ubench SSRs per mitigation combo",
                      2, cells, print};

} // namespace hiss::bench
