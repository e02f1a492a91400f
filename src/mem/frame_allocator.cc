#include "mem/frame_allocator.h"

#include "sim/logging.h"

namespace hiss {

FrameAllocator::FrameAllocator(std::uint64_t total_frames)
    : total_(total_frames)
{
    if (total_frames == 0)
        fatal("FrameAllocator: zero frames");
}

Pfn
FrameAllocator::allocate()
{
    Pfn pfn;
    if (!freelist_.empty()) {
        pfn = freelist_.back();
        freelist_.pop_back();
        in_use_[pfn] = true;
    } else if (next_ < total_) {
        pfn = next_++;
        in_use_.push_back(true);
    } else {
        fatal("FrameAllocator: out of simulated physical memory "
              "(%llu frames)", static_cast<unsigned long long>(total_));
    }
    ++allocated_;
    return pfn;
}

void
FrameAllocator::free(Pfn pfn)
{
    if (!isAllocated(pfn))
        panic("FrameAllocator: bad free of frame %llu",
              static_cast<unsigned long long>(pfn));
    in_use_[pfn] = false;
    --allocated_;
    freelist_.push_back(pfn);
}

} // namespace hiss
