/**
 * @file
 * Per-address-space page table.
 *
 * Maps 4 KiB virtual pages to physical frames. The IOMMU's
 * page-table walker consults this on GPU translation requests; an
 * unmapped page produces the peripheral page request (PPR) that
 * drives the whole SSR pipeline. The OS page-fault service maps
 * pages on demand.
 *
 * Layout: like a hardware last-level page table, mappings live in
 * dense 512-entry leaves (one 4 KiB leaf per 512 consecutive VPNs),
 * kept in an ordered directory keyed by `vpn >> 9`. The GPU model
 * hands out VPNs in order within each (device, launch generation)
 * region, so a leaf fills before the next one is allocated and a
 * page costs 8 bytes. A one-leaf cache in front of the directory
 * serves the sequential lookups that dominate the walk.
 */

#ifndef HISS_MEM_PAGE_TABLE_H_
#define HISS_MEM_PAGE_TABLE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>

#include "mem/cache.h" // for Addr

namespace hiss {

/** Virtual page number. */
using Vpn = std::uint64_t;
/** Physical frame number. */
using Pfn = std::uint64_t;

/** Page size used throughout the model. */
inline constexpr std::uint64_t kPageBytes = 4096;
inline constexpr std::uint32_t kPageShift = 12;

/** Virtual address to virtual page number. */
constexpr Vpn
vpnOf(Addr va)
{
    return va >> kPageShift;
}

/** A single address space's VPN -> PFN mapping. */
class PageTable
{
  public:
    /** log2 of the VPNs one leaf covers. */
    static constexpr std::uint32_t kLeafShift = 9;
    static constexpr std::size_t kLeafEntries = std::size_t{1}
                                                << kLeafShift;

    PageTable() = default;
    // The lookup cache points into this table's own leaves.
    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /** @return true if @p vpn has a valid translation. */
    bool
    isMapped(Vpn vpn) const
    {
        const Leaf *leaf = findLeaf(vpn >> kLeafShift);
        return leaf != nullptr && leaf->slots[slotOf(vpn)] != 0;
    }

    /**
     * Install a translation. Remapping an already-mapped page is an
     * internal error (panics): the SSR pipeline must not double-map.
     * @p pfn must not be `~Pfn{0}` (it has no slot encoding).
     */
    void map(Vpn vpn, Pfn pfn);

    /** Remove a translation; panics if absent. */
    Pfn unmap(Vpn vpn);

    /**
     * Translate @p vpn.
     * @param[out] pfn the frame on success.
     * @return false on page fault (no translation).
     */
    bool
    translate(Vpn vpn, Pfn &pfn) const
    {
        const Leaf *leaf = findLeaf(vpn >> kLeafShift);
        if (leaf == nullptr || leaf->slots[slotOf(vpn)] == 0)
            return false;
        pfn = leaf->slots[slotOf(vpn)] - 1;
        return true;
    }

    /** Number of mapped pages. */
    std::size_t numMapped() const { return mapped_; }

    /** Number of allocated 512-entry leaves (memory footprint). */
    std::size_t numLeaves() const { return leaves_.size(); }

    /** Visit every (vpn, pfn) mapping in ascending VPN order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &[key, leaf] : leaves_) {
            const Vpn base = key << kLeafShift;
            for (std::size_t i = 0; i < kLeafEntries; ++i) {
                if (leaf.slots[i] != 0)
                    fn(base + i, leaf.slots[i] - 1);
            }
        }
    }

    /** Drop every mapping (process teardown). */
    void clear();

  private:
    /** 512 consecutive VPNs: each slot holds pfn + 1, 0 = unmapped. */
    struct Leaf
    {
        std::array<Pfn, kLeafEntries> slots{};
        std::uint32_t live = 0; ///< Nonzero slots; 0 frees the leaf.
    };

    /** No leaf key (keys are at most 2^55 - 1). */
    static constexpr Vpn kNoLeaf = ~Vpn{0};

    static std::size_t
    slotOf(Vpn vpn)
    {
        return static_cast<std::size_t>(vpn & (kLeafEntries - 1));
    }

    /** The leaf covering VPNs [key << 9, (key + 1) << 9), or null;
     *  a found leaf becomes the cached one. */
    Leaf *
    findLeaf(Vpn key) const
    {
        if (key != cached_key_) {
            const auto it = leaves_.find(key);
            if (it == leaves_.end())
                return nullptr;
            cached_key_ = key;
            // A node of this table's own map: only the non-const
            // map() and unmap() write through the pointer.
            cached_leaf_ = const_cast<Leaf *>(&it->second);
        }
        return cached_leaf_;
    }

    // HISS_STATE_EXEMPT(leaves_): serialized through forEach/map/clear
    // visitation in snap::Access; the analyzer cannot see through the
    // accessor
    std::map<Vpn, Leaf> leaves_;
    // HISS_STATE_EXEMPT(mapped_): derived; the live-slot count that
    // map/unmap/clear keep, rebuilt by the restore's map calls
    std::size_t mapped_ = 0;
    // HISS_STATE_EXEMPT(cached_key_): derived lookup cache; restore
    // starts from clear(), which empties it
    mutable Vpn cached_key_ = kNoLeaf;
    // HISS_STATE_EXEMPT(cached_leaf_): derived lookup cache, valid
    // only while cached_key_ names a leaf
    mutable Leaf *cached_leaf_ = nullptr;
};

} // namespace hiss

#endif // HISS_MEM_PAGE_TABLE_H_
