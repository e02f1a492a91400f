/**
 * @file
 * Canonical per-cell config text: the one identity of a cell.
 *
 * Every experiment cell — workload pair, full ExperimentConfig
 * (mitigations, QoS, fault plan, base system), seed, measure mode,
 * and repetition count — reduces to one canonical text. Equal texts
 * mean equal work: ExperimentBatch shares runs on it, figure printers
 * look results up by it, and its FNV-1a digest keys the on-disk
 * result cache (src/campaign). The determinism contract (same seed +
 * config => identical bytes) is what makes that sound: two cells with
 * equal texts produce bit-identical results, so a shared run or a
 * cache hit is indistinguishable from a fresh run.
 *
 * The canonical text is versioned (kCellKeyFormat) and includes every
 * ExperimentConfig field that can change an observable; a base_system
 * folds in field by field (canonicalSystemText).
 */

#ifndef HISS_CORE_CELL_KEY_H_
#define HISS_CORE_CELL_KEY_H_

#include <cstdint>
#include <string>

#include "core/experiment_batch.h"

namespace hiss {

/** Bump whenever canonicalCellText's layout or field set changes;
 *  old cache records then miss instead of aliasing new cells. */
inline constexpr int kCellKeyFormat = 3;

/**
 * Stable, line-oriented serialization of everything that determines
 * @p cell's result. Doubles are printed with %.17g so distinct bit
 * patterns stay distinct.
 */
std::string canonicalCellText(const ExperimentCell &cell);

/**
 * Every leaf field of @p system, nested params included, as one
 * base.<path>=<value> line (doubles %.17g, enums and bools as
 * integers). canonicalCellText folds a base_system in as this text,
 * and HeteroSystem::configFingerprint hashes it.
 */
std::string canonicalSystemText(const SystemConfig &system);

/** FNV-1a 64-bit digest of a canonical text (snap::Hash64). */
std::uint64_t textKey(const std::string &canonical);

/** textKey of canonicalCellText: the cell's key. */
std::uint64_t cellKey(const ExperimentCell &cell);

/**
 * True when @p cell is in shard @p shard of @p shard_count
 * (cellKey % shard_count == shard; 0 <= shard < shard_count). Each
 * cell is in exactly one shard, fixed by its key alone, so the shards
 * of a cell list partition it whatever order the cells come in.
 */
bool inShard(const ExperimentCell &cell, std::uint64_t shard,
             std::uint64_t shard_count);

/** cellKey rendered as 16 lowercase hex digits (cache file stem). */
std::string cellKeyHex(const ExperimentCell &cell);

/** Render any u64 digest as 16 lowercase hex digits. */
std::string keyToHex(std::uint64_t key);

/**
 * One-line seed + config repro summary for failure reports, e.g.
 * "seed=81 cpu='x264' gpu='ubench' mode=cpu_primary
 * mitigation=default ... key=<cellKeyHex>". It names the mode, the
 * coalescing window, the run window and cap, and the base system
 * (its canonicalSystemText digest), so distinct cells print distinct
 * lines. Matches the stderr line ExperimentRunner prints on a
 * throwing cell, so every failing CellOutcome names enough to
 * reproduce the failure verbatim.
 */
std::string cellRepro(const ExperimentCell &cell);

} // namespace hiss

#endif // HISS_CORE_CELL_KEY_H_
