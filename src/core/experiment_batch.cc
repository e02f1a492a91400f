#include "core/experiment_batch.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "campaign/result_cache.h"
#include "core/cell_key.h"
#include "sim/logging.h"

namespace hiss {
namespace {

/** One distinct simulation of a batch: a cell at a single seed. */
struct Run
{
    ExperimentCell cell;     ///< reps = 1; config.seed is this run's seed.
    const std::string *text; ///< canonicalCellText(cell).
    std::size_t owner;       ///< The first submitted cell that needs it.
    RunResult result{};
    std::exception_ptr error{};
    double wall_ms = 0.0;
    bool cached = false;   ///< Served from the result cache.
    bool replaced = false; ///< Its record was stale or damaged.
    std::exception_ptr cache_error{}; ///< The cache could not store it.
};

/**
 * Execute one run, recording its result or failure. Every failure is
 * captured as the live exception_ptr (runCatching later converts it
 * to a typed reason + repro line; run() rethrows it), and every
 * attempt — failed or not — records its host wall-clock cost. With a
 * cache, a run it holds is served instead, and a successful run is
 * stored before the worker takes the next one.
 */
void
runOne(Run &run, const campaign::ResultCache *cache)
{
    std::string key_hex;
    if (cache != nullptr) {
        try {
            key_hex = keyToHex(textKey(*run.text));
            campaign::Lookup found = cache->lookup(key_hex, *run.text);
            if (found.status == campaign::LookupStatus::Hit
                && found.outcome.ok) {
                run.result = std::move(found.outcome.result);
                run.cached = true;
                return;
            }
            run.replaced = found.status != campaign::LookupStatus::Miss;
        } catch (...) {
            run.cache_error = std::current_exception();
            return;
        }
    }
    const auto start = std::chrono::steady_clock::now();
    try {
        run.result = ExperimentRunner::run(run.cell.cpu_app,
                                           run.cell.gpu_app,
                                           run.cell.config,
                                           run.cell.mode);
    } catch (...) {
        run.error = std::current_exception();
    }
    run.wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (cache == nullptr || run.error)
        return;
    CellOutcome outcome;
    outcome.ok = true;
    outcome.result = run.result;
    try {
        cache->store(key_hex, *run.text, outcome);
    } catch (...) {
        run.cache_error = std::current_exception();
    }
}

/**
 * Execute every run on up to @p jobs workers, each taking the next
 * unstarted run in submission order. Runs are whole simulations, so
 * one shared counter balances the load; a straggler delays only its
 * own worker. A failed store stops the pool from starting more.
 */
void
execute(std::vector<Run> &runs, int jobs,
        const campaign::ResultCache *cache)
{
    const int workers = static_cast<int>(std::min<std::size_t>(
        runs.size(), static_cast<std::size_t>(jobs)));
    std::mutex mutex;
    std::size_t next = 0; // Guarded by mutex.
    const auto work = [&] {
        for (;;) {
            std::size_t i = 0;
            {
                const std::lock_guard<std::mutex> lock(mutex);
                if (next == runs.size())
                    return;
                i = next++;
            }
            runOne(runs[i], cache);
            if (runs[i].cache_error) {
                const std::lock_guard<std::mutex> lock(mutex);
                next = runs.size();
            }
        }
    };
    // jthread joins on destruction, so every worker has finished
    // before runs is read, even when starting one throws.
    std::vector<std::jthread> threads;
    for (int w = 1; w < workers; ++w)
        threads.emplace_back(work);
    work();
}

/**
 * The shared engine behind run() and runCatching(): expand every
 * cell into its per-seed runs, execute (or serve from @p cache) each
 * distinct run once, then fold each cell's runs in seed order.
 * Returns every cell's outcome except the error text; @p errors
 * receives each failing cell's exception (its first failing run's,
 * in seed order). A failed store is rethrown instead.
 */
std::vector<CellOutcome>
settle(const std::vector<ExperimentCell> &cells, int jobs,
       const campaign::ResultCache *cache,
       std::vector<std::exception_ptr> &errors, BatchTally *tally)
{
    std::vector<Run> runs;
    std::vector<std::vector<std::size_t>> uses(cells.size());
    std::map<std::string, std::size_t> by_text;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        for (int r = 0; r < cells[i].reps; ++r) {
            ExperimentCell one = cells[i];
            one.reps = 1;
            one.config.seed += static_cast<std::uint64_t>(r);
            const auto [at, fresh] =
                by_text.emplace(canonicalCellText(one), runs.size());
            if (fresh)
                runs.push_back({std::move(one), &at->first, i});
            uses[i].push_back(at->second);
        }
    }
    execute(runs, jobs, cache);

    BatchTally counted;
    for (const Run &run : runs) {
        if (run.cache_error)
            std::rethrow_exception(run.cache_error);
        counted.cached += run.cached;
        counted.executed += !run.cached;
        counted.replaced += run.replaced;
    }
    if (tally != nullptr)
        *tally = counted;

    std::vector<CellOutcome> outcomes(cells.size());
    errors.assign(cells.size(), nullptr);
    for (const Run &run : runs)
        outcomes[run.owner].wall_ms += run.wall_ms;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].reps < 1) {
            errors[i] = std::make_exception_ptr(FatalError(
                "ExperimentBatch: reps must be positive, got "
                + std::to_string(cells[i].reps)));
            outcomes[i].repro = cellRepro(cells[i]);
            continue;
        }
        std::vector<RunResult> results;
        for (const std::size_t k : uses[i]) {
            if (runs[k].error) {
                errors[i] = runs[k].error;
                outcomes[i].repro = cellRepro(runs[k].cell);
                break;
            }
            results.push_back(runs[k].result);
        }
        outcomes[i].ok = !errors[i];
        if (outcomes[i].ok)
            outcomes[i].result = results.size() == 1
                ? std::move(results.front())
                : ExperimentRunner::average(results);
    }
    return outcomes;
}

} // namespace

ExperimentBatch::ExperimentBatch(int jobs,
                                 const campaign::ResultCache *cache)
    : jobs_(jobs), cache_(cache)
{
    if (jobs_ <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs_ = hw > 0 ? static_cast<int>(hw) : 1;
    }
}

std::vector<RunResult>
ExperimentBatch::run(const std::vector<ExperimentCell> &cells,
                     BatchTally *tally) const
{
    std::vector<std::exception_ptr> errors;
    std::vector<CellOutcome> outcomes =
        settle(cells, jobs_, cache_, errors, tally);
    std::vector<RunResult> results;
    results.reserve(outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
        results.push_back(std::move(outcomes[i].result));
    }
    return results;
}

std::vector<CellOutcome>
ExperimentBatch::runCatching(const std::vector<ExperimentCell> &cells,
                             BatchTally *tally) const
{
    std::vector<std::exception_ptr> errors;
    std::vector<CellOutcome> outcomes =
        settle(cells, jobs_, cache_, errors, tally);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!errors[i])
            continue;
        // Both arms record a reason (settle() recorded the seed+config
        // repro line); a non-std::exception throw gets a typed
        // placeholder instead of an empty string.
        try {
            std::rethrow_exception(errors[i]);
        } catch (const std::exception &e) {
            outcomes[i].error = e.what();
        } catch (...) {
            outcomes[i].error = "unknown error (non-std::exception throw)";
        }
    }
    return outcomes;
}

} // namespace hiss
