/**
 * @file
 * Content-addressed on-disk result cache for per-seed runs.
 *
 * One record per cell key (core/cell_key.h): `<dir>/<hex16>.rec`,
 * framed with the snapshot integrity header (magic, version, payload
 * length, FNV-1a checksum — snap::frame/unframe), so truncation and
 * bit damage are detected exactly like a corrupt snapshot would be.
 * A damaged record is never trusted: lookup reports Corrupt with the
 * reason, and ExperimentBatch re-runs the run and overwrites it.
 *
 * Records are written with write-then-rename (snap::writeFileAtomic),
 * so a process killed mid-store leaves either no record or a complete
 * one — the crash-resume invariant rests on this.
 *
 * The payload carries the run's canonical config text alongside the
 * outcome; lookup cross-checks it so a key collision (or a record
 * from an older key format) surfaces as Corrupt instead of serving a
 * wrong result. A key names the config, not the code that ran it, so
 * a cache opened with a build fingerprint stamps it on every record's
 * text, and a record of another build fails that cross-check too.
 * The determinism contract makes a Hit byte-equivalent to re-running
 * the cell.
 */

#ifndef HISS_CAMPAIGN_RESULT_CACHE_H_
#define HISS_CAMPAIGN_RESULT_CACHE_H_

#include <cstdint>
#include <string>

#include "core/experiment_batch.h"

namespace hiss {
namespace campaign {

/** How a cache lookup resolved. */
enum class LookupStatus {
    Hit,     ///< Valid record; outcome is filled in.
    Miss,    ///< No record on disk.
    Corrupt, ///< Record exists but cannot be served; detail names why.
};

/** Result of ResultCache::lookup. */
struct Lookup
{
    LookupStatus status = LookupStatus::Miss;
    /** Valid when status == Hit. */
    CellOutcome outcome;
    /** Why the record is not served, when status == Corrupt. */
    std::string detail;
};

/** Content-addressed store of per-cell outcomes under one directory. */
class ResultCache
{
  public:
    /**
     * Opens (creating if needed) the cache directory @p dir. A
     * non-empty @p fingerprint names the build: store() stamps it on
     * each record, and lookup() serves only records stamped with it.
     * With an empty one the record bytes carry no stamp.
     * @throws FatalError if @p dir cannot be created.
     */
    explicit ResultCache(std::string dir, std::string fingerprint = {});

    const std::string &dir() const { return dir_; }

    /** Path of the record for @p key_hex. */
    std::string recordPath(const std::string &key_hex) const;

    /**
     * Look up @p key_hex, validating the integrity frame, that the
     * stored canonical text equals @p canonical, and that the record
     * carries this cache's fingerprint.
     */
    Lookup lookup(const std::string &key_hex,
                  const std::string &canonical) const;

    /**
     * Store @p outcome under @p key_hex (atomic write-then-rename;
     * overwrites a previous — possibly corrupt — record).
     * @throws snap::SnapshotError on I/O failure.
     */
    void store(const std::string &key_hex, const std::string &canonical,
               const CellOutcome &outcome) const;

    /** Serialize an outcome to the framed record representation. */
    static std::string encode(const std::string &canonical,
                              const CellOutcome &outcome);

    /**
     * Parse a framed record. @throws snap::SnapshotError on any
     * structural damage (magic, version, truncation, checksum).
     */
    static CellOutcome decode(const std::string &blob,
                              std::string &canonical_out);

  private:
    std::string dir_;
    std::string fingerprint_;
};

} // namespace campaign
} // namespace hiss

#endif // HISS_CAMPAIGN_RESULT_CACHE_H_
