/**
 * @file
 * The shared lookup/replace loop behind Cache::access{,Batch}.
 *
 * The loop is a template over a *probe policy* so the portable scalar
 * kernel and the AVX2 kernel (src/mem/cache_simd_avx2.cc) are one
 * piece of code that cannot diverge: a probe only answers "which
 * way holds this tag code", and every probe must return the same way
 * index for the same set contents (at most one way can match, because
 * insertion happens only on miss). Everything behaviour-relevant —
 * LRU stamping, victim choice, counters — lives here, once.
 *
 * This header is internal to src/mem; tests and callers go through
 * the Cache API in cache.h.
 */

#ifndef HISS_MEM_CACHE_RUN_H_
#define HISS_MEM_CACHE_RUN_H_

#include <cstddef>
#include <cstdint>

#include "mem/cache.h"

namespace hiss {
namespace cache_detail {

/** The raw cache arrays and geometry one run loop works over, plus
 *  the use clock carried across the loop (written back by the run). */
struct RunState
{
    Addr *tags = nullptr;          ///< Tag codes (tag + 1, 0 invalid).
    std::uint64_t *lru = nullptr;  ///< Recency stamps (0 invalid).
    std::uint32_t assoc = 0;
    std::uint32_t set_mask = 0;    ///< num_sets - 1.
    std::uint32_t shift = 0;       ///< log2(line_bytes).
    std::uint64_t clock = 0;       ///< In/out: monotonic use clock.
};

/** One accessRun kernel: returns the miss count for the run. */
using RunFn = std::uint64_t (*)(RunState &state, const Addr *addrs,
                                std::size_t n, std::uint8_t *hits_out);

/**
 * Portable probe. The 4-way case (default L1D geometry) and the
 * 8-way case (shared-L2-shaped geometries) evaluate all ways
 * branchlessly; a loop with an early exit mispredicts on the
 * data-dependent exit way. Invalid ways hold code 0 and can never
 * match, so no validity check is needed anywhere.
 */
struct PortableProbe
{
    static inline std::uint32_t
    find(const Addr *set_tags, Addr code, std::uint32_t assoc)
    {
        if (assoc == 4) {
            const bool h0 = set_tags[0] == code;
            const bool h1 = set_tags[1] == code;
            const bool h2 = set_tags[2] == code;
            const bool h3 = set_tags[3] == code;
            return h0 ? 0u : h1 ? 1u : h2 ? 2u : h3 ? 3u : 4u;
        }
        if (assoc == 8) {
            const bool h0 = set_tags[0] == code;
            const bool h1 = set_tags[1] == code;
            const bool h2 = set_tags[2] == code;
            const bool h3 = set_tags[3] == code;
            const bool h4 = set_tags[4] == code;
            const bool h5 = set_tags[5] == code;
            const bool h6 = set_tags[6] == code;
            const bool h7 = set_tags[7] == code;
            return h0 ? 0u
                 : h1 ? 1u
                 : h2 ? 2u
                 : h3 ? 3u
                 : h4 ? 4u
                 : h5 ? 5u
                 : h6 ? 6u
                 : h7 ? 7u
                      : 8u;
        }
        std::uint32_t way;
        for (way = 0; way < assoc; ++way)
            if (set_tags[way] == code)
                break;
        return way;
    }
};

/**
 * The one lookup/replace loop. Hot state (use clock, miss count)
 * lives in locals across the loop; a hit exits before the victim
 * bookkeeping runs. Replacement matches the original scalar
 * semantics exactly: the victim is the *last* invalid way if any way
 * is invalid, otherwise the first way holding the minimum LRU stamp.
 */
template <class Probe, bool Record>
std::uint64_t
run(RunState &state, const Addr *addrs, std::size_t n,
    std::uint8_t *hits_out)
{
    const std::uint32_t assoc = state.assoc;
    const std::uint32_t set_mask = state.set_mask;
    const std::uint32_t shift = state.shift;
    Addr *const tags = state.tags;
    std::uint64_t *const lru = state.lru;
    std::uint64_t clock = state.clock;
    std::uint64_t miss_count = 0;

    for (std::size_t i = 0; i < n; ++i) {
        const Addr tag = addrs[i] >> shift;
        const Addr code = tag + 1; // Stored form; 0 marks invalid.
        const std::size_t base =
            static_cast<std::size_t>(static_cast<std::uint32_t>(tag)
                                     & set_mask)
            * assoc;
        Addr *const set_tags = tags + base;
        std::uint64_t *const set_lru = lru + base;

        const std::uint32_t way = Probe::find(set_tags, code, assoc);
        if (way < assoc) {
            set_lru[way] = ++clock;
            if constexpr (Record)
                hits_out[i] = 1;
            continue;
        }

        // Miss: victim is the last invalid way if any, otherwise the
        // first way holding the minimum LRU stamp (true LRU).
        std::uint32_t victim = 0;
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (set_lru[w] == 0)
                victim = w;
            else if (set_lru[victim] != 0
                     && set_lru[w] < set_lru[victim])
                victim = w;
        }
        set_tags[victim] = code;
        set_lru[victim] = ++clock;
        ++miss_count;
        if constexpr (Record)
            hits_out[i] = 0;
    }

    state.clock = clock;
    return miss_count;
}

} // namespace cache_detail
} // namespace hiss

#endif // HISS_MEM_CACHE_RUN_H_
