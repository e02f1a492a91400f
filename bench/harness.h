/**
 * @file
 * Figure declarations for hiss_repro: each paper table, figure or
 * extension is the experiment cells it needs plus a printer that
 * prints the paper's rows/series from their results, normalized the
 * same way. Absolute numbers differ from the paper's hardware
 * testbed; the shapes are the reproduction target (EXPERIMENTS.md).
 */

#ifndef HISS_BENCH_HARNESS_H_
#define HISS_BENCH_HARNESS_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/hiss.h"

namespace hiss::bench {

/** The GPU-alone baselines' config: pinned memory, so no SSRs. */
inline ExperimentConfig
pinnedConfig()
{
    ExperimentConfig config;
    config.gpu_demand_paging = false;
    return config;
}

/** The default config with @p mitigation applied. */
inline ExperimentConfig
withMitigation(const MitigationConfig &mitigation)
{
    ExperimentConfig config;
    config.mitigation = mitigation;
    return config;
}

/** What hiss_repro passes every figure. */
struct FigureArgs
{
    /** Repetitions per cell: --reps, else the figure's default. */
    int reps = 1;
    /** --full: complete CPU-app sweeps instead of subsets. */
    bool full = false;

    /** A cell of this figure: @p reps repetitions of the pair. */
    ExperimentCell
    cell(const std::string &cpu_app, const std::string &gpu_app,
         MeasureMode mode, const ExperimentConfig &config = {}) const
    {
        return {cpu_app, gpu_app, config, mode, reps};
    }

    /**
     * The no-SSR CPU baseline: @p cpu_app alone. A GPU on pinned
     * memory raises no SSR and shares no resource with the CPUs, so
     * it cannot change the CPU app's run; ExperimentRunner's
     * PinnedGpuBaselineEqualsCpuOnly test guards that.
     */
    ExperimentCell
    cpuBaseline(const std::string &cpu_app) const
    {
        return cell(cpu_app, "", MeasureMode::CpuOnly);
    }

    /** @p gpu_app alone on idle CPUs. */
    ExperimentCell
    gpuAlone(const std::string &gpu_app,
             const ExperimentConfig &config = {}) const
    {
        return cell("", gpu_app, MeasureMode::GpuOnly, config);
    }
};

/** A figure's results, looked up by the cell that produced them. */
class Results
{
  public:
    Results(const ExperimentCell *cells, const RunResult *results,
            std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            by_text_.emplace(canonicalCellText(cells[i]), results[i]);
    }

    /** @throws FatalError if the figure did not declare @p cell. */
    const RunResult &
    operator[](const ExperimentCell &cell) const
    {
        const auto found = by_text_.find(canonicalCellText(cell));
        if (found == by_text_.end())
            fatal("figure reads an undeclared cell: %s",
                  cellRepro(cell).c_str());
        return found->second;
    }

  private:
    std::map<std::string, RunResult> by_text_;
};

/** One paper table, figure or extension study. */
struct Figure
{
    /** hiss_repro's name for it, e.g. "fig4". */
    const char *name;
    /** One line for --list. */
    const char *title;
    /** Repetitions per cell when --reps is not given. */
    int default_reps;
    /** The cells to simulate; nullptr if print() measures directly,
     *  as table1, table2 and fig2 do. */
    std::vector<ExperimentCell> (*cells)(const FigureArgs &args);
    /** Print the figure to stdout from its cells' results. */
    void (*print)(const FigureArgs &args, const Results &results);
};

/** Every figure, in the order `hiss_repro all` prints them. */
extern const Figure kTable1, kTable2, kFig2, kFig3a, kFig3b, kFig4,
    kFig5, kSec4c, kFig6, kFig7, kFig8, kFig9, kFig12,
    kExtBackpressure, kExtCoalesce, kExtFaultMatrix, kExtMultiAccel,
    kExtQosPolicies;

/** Print the standard figure banner. */
inline void
banner(const char *figure, const char *claim)
{
    std::printf("================================================="
                "=============\n");
    std::printf("%s\n", figure);
    std::printf("Paper reference: %s\n", claim);
    std::printf("================================================="
                "=============\n\n");
}

/** Progress note on stderr (kept off stdout so tables stay clean). */
inline void
progress(const std::string &what)
{
    std::fprintf(stderr, "  [bench] %s\n", what.c_str());
}

} // namespace hiss::bench

#endif // HISS_BENCH_HARNESS_H_
