/**
 * @file
 * Structural set-associative cache model.
 *
 * Tag-only (no data payload), true-LRU replacement. Used as the
 * per-core L1D: user workloads and kernel SSR handlers drive their
 * address streams through the same instance, so kernel pollution of
 * user state is an emergent property rather than a fudge factor
 * (paper Fig. 5a).
 *
 * Storage is split tag/metadata arrays (structure-of-arrays) so the
 * way scans of the batched access kernel stream through contiguous
 * tags. accessBatch() is the hot entry point — one call per burst
 * sample — and is observably identical, access by access, to calling
 * access() in a loop (enforced by SubstrateBatch.* in ctest).
 */

#ifndef HISS_MEM_CACHE_H_
#define HISS_MEM_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hiss {

namespace snap {
struct Access;
}

/** Physical or virtual byte address (the model does not care which). */
using Addr = std::uint64_t;

/** Geometry and behaviour parameters for a Cache. */
struct CacheParams
{
    std::uint32_t size_bytes = 16 * 1024; ///< Total capacity.
    std::uint32_t assoc = 4;              ///< Ways per set.
    std::uint32_t line_bytes = 64;        ///< Line size.
};

/** A set-associative, true-LRU, tag-only cache model. */
class Cache
{
  public:
    /** @throws FatalError on non-power-of-two or inconsistent geometry. */
    explicit Cache(const CacheParams &params);

    /**
     * Look up @p addr, allocating on miss.
     * @return true on hit.
     */
    bool access(Addr addr);

    /**
     * Look up @p n addresses in order, allocating on miss — exactly
     * equivalent to calling access() on each element, but amortizes
     * the call and counter traffic across the batch.
     *
     * @param hits_out optional per-access results (1 = hit), length n.
     * @return the number of misses in the batch.
     */
    std::uint64_t accessBatch(const Addr *addrs, std::size_t n,
                              std::uint8_t *hits_out = nullptr);

    /** @return true if @p addr is currently resident (no side effects). */
    bool contains(Addr addr) const;

    /** Invalidate the whole cache (e.g. on CC6 entry, which flushes). */
    void flush();

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t flushes() const { return flushes_; }

    /** Miss ratio so far (0 if no accesses). */
    double
    missRate() const
    {
        return accesses_ == 0
            ? 0.0
            : static_cast<double>(misses_) / static_cast<double>(accesses_);
    }

    /** Zero the access/miss/flush counters (contents are kept). */
    void resetCounters();

    std::uint32_t numSets() const { return num_sets_; }
    const CacheParams &params() const { return params_; }

  private:
    /** Snapshot layer serializes tags_/lru_/clock/counters. */
    friend struct snap::Access;

    template <bool Record>
    std::uint64_t accessRun(const Addr *addrs, std::size_t n,
                            std::uint8_t *hits_out);

    std::uint32_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    // HISS_STATE_EXEMPT(params_): construction config, covered by the
    // snapshot config fingerprint
    CacheParams params_;
    // HISS_STATE_EXEMPT(num_sets_): derived geometry, recomputed from
    // params at construction
    std::uint32_t num_sets_;
    // HISS_STATE_EXEMPT(line_shift_): derived geometry, recomputed from
    // params at construction
    std::uint32_t line_shift_;

    // Split arrays, both num_sets_ * assoc entries, set-major.
    // tags_ holds "tag codes" (tag + 1, 0 = invalid) so the hit scan
    // is a single compare per way with no validity check; lru_ holds
    // recency stamps from the monotonically increasing use_clock_
    // (starting at 1, so lru_[i] == 0 also marks invalid). flush()
    // zeroes both.
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lru_;

    std::uint64_t use_clock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t flushes_ = 0;
};

} // namespace hiss

#endif // HISS_MEM_CACHE_H_
