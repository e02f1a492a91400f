/**
 * @file
 * Parallel experiment engine.
 *
 * Every figure in the paper is a CPU-app x GPU-app x mitigation x
 * seed grid of independent single-threaded simulations.
 * ExperimentBatch is the one engine that turns such cells into
 * results: it expands each cell's repetitions into per-seed runs,
 * simulates each distinct run once (cells of one batch that share a
 * run share its result), executes the runs on a thread pool, and
 * returns one result per cell in submission order. Given a result
 * cache (campaign/result_cache.h), it serves each run the cache holds
 * and stores each successful run as soon as it finishes, so a killed
 * call loses only its runs in flight.
 *
 * Determinism contract: each cell's simulation state (event queue,
 * stats, RNG streams) lives inside its own HeteroSystem, and every
 * RNG stream is derived from the cell's seed, so a parallel batch is
 * bit-identical to running the same cells serially in submission
 * order — regardless of the job count, which worker picks up which
 * run, or which other cells share the batch. The only process-global
 * state the simulator touches is the logging configuration, which is
 * thread-safe and read-only during a run (see sim/logging.cc).
 */

#ifndef HISS_CORE_EXPERIMENT_BATCH_H_
#define HISS_CORE_EXPERIMENT_BATCH_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace hiss {

namespace campaign {
class ResultCache;
}

/** One grid cell: the arguments of an ExperimentRunner call. */
struct ExperimentCell
{
    std::string cpu_app;
    std::string gpu_app;
    ExperimentConfig config;
    MeasureMode mode = MeasureMode::CpuPrimary;

    /**
     * Repetitions: seeds seed, seed+1, ..., each its own run, folded
     * by ExperimentRunner::average in seed order. < 1 fails the cell.
     */
    int reps = 1;
};

/** What became of one cell in ExperimentBatch::runCatching. */
struct CellOutcome
{
    /** True when the cell completed; result is then valid. */
    bool ok = false;
    RunResult result;
    /**
     * The failure reason when !ok: the exception's what(), or a
     * typed placeholder for non-std::exception throws. Never empty
     * on failure — every failure path records a reason.
     */
    std::string error;
    /**
     * Seed + config repro line for the failing cell (cellRepro),
     * filled on every failure path so a fuzz report can name the
     * exact rerun without the cell vector.
     */
    std::string repro;
    /**
     * Host wall-clock time of the runs this cell executed, successful
     * or not. A run shared with an earlier cell of the batch is
     * charged to that cell, so a cell served entirely by earlier
     * cells or by the result cache reports 0. Diagnostic only (host
     * profiling); never folded into simulation results.
     */
    double wall_ms = 0.0;
};

/** What one batch call did with its distinct per-seed runs. */
struct BatchTally
{
    std::size_t cached = 0;   ///< Served from the result cache.
    std::size_t executed = 0; ///< Simulated, failed ones included.
    /** Of those executed, runs whose record was stale or damaged. */
    std::size_t replaced = 0;
};

/** Runs experiment cells across worker threads. */
class ExperimentBatch
{
  public:
    /**
     * @param jobs worker threads; <= 0 selects the hardware
     *             concurrency. 1 runs cells inline on the caller.
     * @param cache result cache to serve runs from and store them in,
     *              or nullptr. It must outlive the batch. Only
     *              successful runs are stored: a failure re-runs (and
     *              fails again) on the next call.
     */
    explicit ExperimentBatch(int jobs = 0,
                             const campaign::ResultCache *cache = nullptr);

    /** Effective worker count. */
    int jobs() const { return jobs_; }

    /**
     * Run every cell and return results in submission order. Each
     * distinct per-seed run (by canonicalCellText) executes once, on
     * min(jobs, runs) workers that each take the next unstarted run,
     * so stragglers (long CPU apps) do not serialize the tail. If any
     * cell fails, the first failure in submission order (within a
     * cell, in seed order) is rethrown after all workers finish.
     * @p tally, if given, receives what became of the runs.
     * @throws snap::SnapshotError if the cache cannot store a run;
     *         no run starts after that.
     */
    std::vector<RunResult> run(const std::vector<ExperimentCell> &cells,
                               BatchTally *tally = nullptr) const;

    /**
     * Like run(), but failures never propagate: every cell runs to
     * an outcome, and failing cells carry the error text instead of
     * a result. Built for hiss_fuzz, which must keep fuzzing after a
     * seed fails and attribute each failure to its cell. A cache
     * that cannot store still throws, as in run().
     */
    std::vector<CellOutcome>
    runCatching(const std::vector<ExperimentCell> &cells,
                BatchTally *tally = nullptr) const;

  private:
    int jobs_;
    const campaign::ResultCache *cache_;
};

} // namespace hiss

#endif // HISS_CORE_EXPERIMENT_BATCH_H_
