#include "mem/page_table.h"

#include "sim/logging.h"

namespace hiss {

void
PageTable::map(Vpn vpn, Pfn pfn)
{
    if (pfn == ~Pfn{0})
        panic("PageTable: frame %llu has no slot encoding",
              static_cast<unsigned long long>(pfn));
    const Vpn key = vpn >> kLeafShift;
    if (key != cached_key_) {
        cached_leaf_ = &leaves_[key];
        cached_key_ = key;
    }
    Leaf &leaf = *cached_leaf_;
    Pfn &slot = leaf.slots[slotOf(vpn)];
    if (slot != 0)
        panic("PageTable: double-mapping vpn %llu",
              static_cast<unsigned long long>(vpn));
    slot = pfn + 1;
    ++leaf.live;
    ++mapped_;
}

Pfn
PageTable::unmap(Vpn vpn)
{
    const Vpn key = vpn >> kLeafShift;
    Leaf *leaf = findLeaf(key);
    if (leaf == nullptr || leaf->slots[slotOf(vpn)] == 0)
        panic("PageTable: unmapping absent vpn %llu",
              static_cast<unsigned long long>(vpn));
    const Pfn pfn = leaf->slots[slotOf(vpn)] - 1;
    leaf->slots[slotOf(vpn)] = 0;
    --mapped_;
    if (--leaf->live == 0) {
        leaves_.erase(key);
        cached_key_ = kNoLeaf;
        cached_leaf_ = nullptr;
    }
    return pfn;
}

void
PageTable::clear()
{
    leaves_.clear();
    mapped_ = 0;
    cached_key_ = kNoLeaf;
    cached_leaf_ = nullptr;
}

} // namespace hiss
