/**
 * @file
 * Crash-resumable campaign orchestrator.
 *
 * A campaign is a directory:
 *
 *   <dir>/manifest.jsonl        the grid (campaign/manifest.h)
 *   <dir>/cache/<hex16>.rec     per-cell results (result_cache.h)
 *
 * The invariant the layout buys: a shard killed at any instant —
 * SIGKILL included — leaves only complete artifacts (manifest and
 * records are write-then-rename), so a resume simply scans the cache
 * and runs the cells whose records are missing or damaged. Because
 * each cell is deterministic, the merged output of "run, crash,
 * resume" is byte-identical to an uninterrupted run.
 *
 * Containment keeps one pathological cell from sinking a sweep:
 * GridSpec::tick_budget_ms caps simulated time deterministically
 * inside the run, and a cell that fails is cached as a failure
 * (ok=false + reason + repro line) on its first run — rerunning a
 * deterministic cell can only fail the same way — so merges stay
 * complete and resumes do not loop on it. --retry-failed reruns
 * cached failures on request.
 */

#ifndef HISS_CAMPAIGN_CAMPAIGN_H_
#define HISS_CAMPAIGN_CAMPAIGN_H_

#include <cstddef>
#include <string>

#include "campaign/manifest.h"
#include "campaign/result_cache.h"

namespace hiss {
namespace campaign {

/** Run-time knobs for one CampaignEngine::run invocation. */
struct CampaignOptions
{
    /** Worker threads, and cells per committed chunk; <= 0 =
     *  hardware concurrency. */
    int jobs = 0;

    /** This process owns cells with index % shard_count == shard_index. */
    int shard_index = 0;
    int shard_count = 1;

    /** Re-run cells whose cached record is a failure. */
    bool retry_failed = false;
};

/** What one CampaignEngine::run did. */
struct CampaignReport
{
    std::size_t total = 0;        ///< Cells in the manifest.
    std::size_t owned = 0;        ///< Cells this shard owns.
    std::size_t cached_hits = 0;  ///< Owned cells served from cache.
    std::size_t executed = 0;     ///< Owned cells actually simulated.
    std::size_t failures = 0;     ///< Owned cells whose outcome is a failure.
    std::size_t corrupt_rerun = 0; ///< Damaged records detected and re-run.
};

/** Cache coverage of the whole grid (CampaignEngine::status). */
struct CampaignStatus
{
    std::size_t total = 0;
    std::size_t cached_ok = 0;
    std::size_t cached_failed = 0;
    std::size_t corrupt = 0;
    std::size_t missing = 0;

    bool complete() const { return corrupt == 0 && missing == 0; }
};

/** Orchestrates a sharded, resumable sweep over one campaign dir. */
class CampaignEngine
{
  public:
    explicit CampaignEngine(std::string dir);

    const std::string &dir() const { return dir_; }

    /** Path of the result cache under the campaign dir. */
    std::string cacheDir() const { return dir_ + "/cache"; }

    /**
     * Enumerate @p spec's grid and atomically write the manifest.
     * Safe to call on an existing campaign only with an identical
     * spec (keys are content-addressed, so records stay valid).
     */
    void build(const GridSpec &spec) const;

    /**
     * Run (or resume) this shard's share of the grid: scan the cache,
     * run each missing or corrupt cell once, and store every
     * outcome. Idempotent — a second call with a warm cache executes
     * nothing.
     */
    CampaignReport run(const CampaignOptions &options) const;

    /** Cache coverage of the full grid, without running anything. */
    CampaignStatus status() const;

    /**
     * Stream every cell's record, in manifest index order, into one
     * CSV at @p out_path (write-then-rename). @returns rows written.
     * @throws FatalError if any cell's record is missing or damaged —
     * merge never papers over an incomplete campaign.
     */
    std::size_t merge(const std::string &out_path) const;

    /** The merged CSV header row (schema lives in one place). */
    static std::string csvHeader();

  private:
    std::string dir_;
};

} // namespace campaign
} // namespace hiss

#endif // HISS_CAMPAIGN_CAMPAIGN_H_
