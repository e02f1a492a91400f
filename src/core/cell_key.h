/**
 * @file
 * Canonical per-cell config hashing for the campaign engine.
 *
 * Every experiment cell — workload pair, full ExperimentConfig
 * (mitigations, QoS, fault plan, warmup cut), seed, measure mode, and
 * repetition count — reduces to one canonical text whose FNV-1a
 * digest keys the on-disk result cache (src/campaign). The
 * determinism contract (same seed + config => identical bytes) is
 * what makes the key meaningful: two cells with equal keys produce
 * bit-identical results, so a cache hit is indistinguishable from a
 * fresh run.
 *
 * The canonical text is versioned (kCellKeyFormat) and includes every
 * ExperimentConfig field that can change an observable (a base_system
 * only as its describe(), which omits some parameters; campaign grids
 * never set one), including warmup_ticks: a
 * warm-restored run is bit-identical to the cold run by the snapshot
 * round-trip contract, so warm and cold execution of the same cell
 * share one key, while cells that cut warmup at different points do
 * not. The snapshot_cache pointer is deliberately excluded — where a
 * warm state is shared never changes results.
 */

#ifndef HISS_CORE_CELL_KEY_H_
#define HISS_CORE_CELL_KEY_H_

#include <cstdint>
#include <string>

#include "core/experiment_batch.h"

namespace hiss {

/** Bump whenever canonicalCellText's layout or field set changes;
 *  old cache records then miss instead of aliasing new cells. */
inline constexpr int kCellKeyFormat = 1;

/**
 * Stable, line-oriented serialization of everything that determines
 * @p cell's result. Doubles are printed with %.17g so distinct bit
 * patterns stay distinct.
 */
std::string canonicalCellText(const ExperimentCell &cell);

/**
 * canonicalCellText plus the base_system address, if any, since
 * describe() does not tell every two bases apart: equal identities
 * give bit-identical results within one process, while the bases
 * they name are alive. ExperimentBatch shares runs on it.
 */
std::string cellIdentity(const ExperimentCell &cell);

/** FNV-1a 64-bit digest of canonicalCellText (snap::Hash64). */
std::uint64_t cellKey(const ExperimentCell &cell);

/** cellKey rendered as 16 lowercase hex digits (cache file stem). */
std::string cellKeyHex(const ExperimentCell &cell);

/** Render any u64 digest as 16 lowercase hex digits. */
std::string keyToHex(std::uint64_t key);

/**
 * One-line seed + config repro summary for failure reports, e.g.
 * "seed=81 cpu='x264' gpu='ubench' mitigation=default qos=0 ...".
 * Matches the stderr line ExperimentRunner prints on a throwing
 * cell, so every CellOutcome and campaign-ledger entry names enough
 * to reproduce the failure verbatim.
 */
std::string cellRepro(const ExperimentCell &cell);

} // namespace hiss

#endif // HISS_CORE_CELL_KEY_H_
