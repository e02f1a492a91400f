/**
 * @file
 * Campaign work manifest: the durable description of a sweep.
 *
 * A manifest is a versioned JSONL file (`manifest.jsonl`) written
 * once at build time with write-then-rename, so it either exists
 * completely or not at all — a SIGKILL during build never leaves a
 * half-manifest a resume could misread. Three line types:
 *
 *   {"type":"header","format":2,"name":...,"cells":N}
 *   {"type":"spec", ...grid parameters...}
 *   {"type":"cell","index":i,"key":"<hex16>","label":...}
 *
 * The spec line is authoritative: run/resume rebuilds the cell
 * vector from it and recomputes every key, then cross-checks the
 * per-cell lines — if the code's canonical serialization has
 * drifted since the manifest was built (key-format bump, new config
 * field), the mismatch fails loudly instead of silently pairing old
 * records with new cells. Sharding is positional: shard k of K owns
 * every cell with index % K == k, so shards partition the grid with
 * no coordination and any subset can run concurrently or crash
 * independently.
 */

#ifndef HISS_CAMPAIGN_MANIFEST_H_
#define HISS_CAMPAIGN_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/cell_key.h"
#include "core/experiment_batch.h"

namespace hiss {
namespace campaign {

/** Manifest format version; bump on any line-layout change. */
inline constexpr int kManifestFormat = 2;

/**
 * The grid a campaign sweeps: the cross product of workload pairs,
 * seeds, mitigation selections, and QoS thresholds, with shared run
 * control. Cells enumerate in a fixed nesting order (cpu, gpu,
 * mitigation, qos, seed), so index <-> cell is stable.
 */
struct GridSpec
{
    std::string name = "campaign";
    /** CPU apps; the empty string means "no CPU app" (GPU-only). */
    std::vector<std::string> cpu_apps;
    std::vector<std::string> gpu_apps;
    std::vector<std::uint64_t> seeds = {1};
    /** All 8 mitigation combinations vs just the default config. */
    bool all_mitigations = false;
    /** QoS thresholds; 0 = governor off. */
    std::vector<double> qos_thresholds = {0.0};
    /** Rate window for rate-based cells, ms. */
    double duration_ms = 8.0;
    /** Per-cell repetitions (averaged, seeds seed..seed+reps-1). */
    int reps = 1;
    /** Simulated-time cap per cell, ms (containment; 0 = default). */
    double tick_budget_ms = 0.0;
    /** Fault-injection plan applied to every cell. */
    FaultPlan fault;

    /**
     * Enumerate the grid's cells in canonical index order.
     * @throws FatalError on an unknown CPU or GPU app name.
     */
    std::vector<ExperimentCell> buildCells() const;
};

/** One manifest cell line. */
struct ManifestCell
{
    std::size_t index = 0;
    std::string key_hex;
    std::string label;
};

/** A parsed manifest: spec + per-cell keys. */
struct Manifest
{
    std::string name;
    GridSpec spec;
    std::vector<ManifestCell> cells;
};

/** Serialize and atomically write `<dir>/manifest.jsonl`. */
void writeManifest(const std::string &dir, const GridSpec &spec);

/**
 * Read and validate `<dir>/manifest.jsonl`.
 * @throws FatalError on a missing file, unknown format version,
 *         malformed line, or cell-count mismatch.
 */
Manifest readManifest(const std::string &dir);

/**
 * Rebuild the cell vector from @p manifest's spec and cross-check
 * every recomputed key against the stored cell lines.
 * @throws FatalError on any key drift.
 */
std::vector<ExperimentCell>
rebuildCells(const Manifest &manifest);

/** Minimal JSON string escaping for manifest/ledger values. */
std::string jsonEscape(const std::string &value);

} // namespace campaign
} // namespace hiss

#endif // HISS_CAMPAIGN_MANIFEST_H_
