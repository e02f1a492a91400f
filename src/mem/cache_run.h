/**
 * @file
 * The lookup/replace loop behind Cache::access{,Batch}.
 *
 * Everything behaviour-relevant — the tag probe, LRU stamping, victim
 * choice, counters — lives here, once, for both entry points.
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

/**
 * The way holding tag code @p code, or @p assoc if no way does. At
 * most one way can match, because insertion happens only on miss, and
 * invalid ways hold code 0 and never match, so no validity check is
 * needed. The 4-way case (the L1D geometry) builds a 4-bit match mask
 * from all four compares and takes its lowest set bit, with bit 4 as
 * the miss sentinel: the ctz-of-movemask a vpcmpeqq probe computes,
 * with no branch. A first-match compare chain, in loop or ternary
 * form, compiles to one data-dependent branch per way, and those
 * mispredict on hit-heavy streams. Other associativities keep the
 * first-match loop.
 */
inline std::uint32_t
probeWay(const Addr *set_tags, Addr code, std::uint32_t assoc)
{
    if (assoc == 4) {
        const std::uint32_t match =
            static_cast<std::uint32_t>(set_tags[0] == code)
            | static_cast<std::uint32_t>(set_tags[1] == code) << 1
            | static_cast<std::uint32_t>(set_tags[2] == code) << 2
            | static_cast<std::uint32_t>(set_tags[3] == code) << 3;
        return static_cast<std::uint32_t>(
            __builtin_ctz(match | 1u << 4));
    }
    std::uint32_t way;
    for (way = 0; way < assoc; ++way)
        if (set_tags[way] == code)
            break;
    return way;
}

/**
 * Miss-path victim: the *last* invalid way if any way is invalid,
 * otherwise the first way holding the minimum LRU stamp (true LRU).
 * Invalid ways hold stamp 0, so with m the minimum stamp this is the
 * highest way holding m when m == 0 and the lowest otherwise; that
 * needs no assumption that stamps are unique. The 4-way case (default
 * L1D geometry, miss rates of 0.5-0.7 in the burst-sampled workloads)
 * computes it branch-free; a scan's data-dependent branches
 * mispredict. Other geometries keep the scan, which is the
 * definition the 4-way select reproduces for every input.
 */
inline std::uint32_t
victimWay(const std::uint64_t *set_lru, std::uint32_t assoc)
{
    if (assoc == 4) {
        const std::uint64_t l0 = set_lru[0];
        const std::uint64_t l1 = set_lru[1];
        const std::uint64_t l2 = set_lru[2];
        const std::uint64_t l3 = set_lru[3];
        const std::uint64_t m01 = l1 < l0 ? l1 : l0;
        const std::uint64_t m23 = l3 < l2 ? l3 : l2;
        const std::uint64_t m = m23 < m01 ? m23 : m01;
        const std::uint32_t at_min = static_cast<std::uint32_t>(l0 == m)
            | static_cast<std::uint32_t>(l1 == m) << 1
            | static_cast<std::uint32_t>(l2 == m) << 2
            | static_cast<std::uint32_t>(l3 == m) << 3;
        const auto lowest = static_cast<std::uint32_t>(
            __builtin_ctz(at_min));
        const auto highest = static_cast<std::uint32_t>(
            31 - __builtin_clz(at_min));
        // A mask select: compilers turn the ternary into a branch.
        const std::uint32_t any_invalid =
            0u - static_cast<std::uint32_t>(m == 0);
        return (highest & any_invalid) | (lowest & ~any_invalid);
    }
    std::uint32_t way = 0;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        if (set_lru[w] == 0)
            way = w;
        else if (set_lru[way] != 0 && set_lru[w] < set_lru[way])
            way = w;
    }
    return way;
}

/**
 * The one lookup/replace loop. Hot state (use clock, miss count)
 * lives in locals across the loop; a hit exits before the victim
 * select runs.
 */
template <bool Record>
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

        const std::uint32_t way = probeWay(set_tags, code, assoc);
        if (way < assoc) {
            set_lru[way] = ++clock;
            if constexpr (Record)
                hits_out[i] = 1;
            continue;
        }

        const std::uint32_t victim = victimWay(set_lru, assoc);
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
