/**
 * @file
 * Physical frame allocator.
 *
 * Models the OS's free-page pool. The page-fault service allocates a
 * frame per soft fault; exhaustion is a user-configuration error
 * (workload footprint exceeding simulated DRAM).
 */

#ifndef HISS_MEM_FRAME_ALLOCATOR_H_
#define HISS_MEM_FRAME_ALLOCATOR_H_

#include <cstdint>
#include <vector>

#include "mem/page_table.h"

namespace hiss {

namespace snap {
struct Access;
}

/** A bump-plus-freelist physical frame allocator. */
class FrameAllocator
{
  public:
    /** @param total_frames number of frames in simulated DRAM. */
    explicit FrameAllocator(std::uint64_t total_frames);

    /**
     * Allocate one frame.
     * @throws FatalError when simulated memory is exhausted.
     */
    Pfn allocate();

    /** Return a frame to the pool; panics on double free. */
    void free(Pfn pfn);

    std::uint64_t totalFrames() const { return total_; }
    std::uint64_t allocatedFrames() const { return allocated_; }
    std::uint64_t freeFrames() const { return total_ - allocated_; }

    /** @return true if @p pfn is currently allocated. */
    bool isAllocated(Pfn pfn) const
    {
        return pfn < in_use_.size() && in_use_[pfn];
    }

  private:
    friend struct snap::Access;

    std::uint64_t total_;
    std::uint64_t next_ = 0;       // Bump pointer.
    std::uint64_t allocated_ = 0;
    std::vector<Pfn> freelist_;
    /** One bit per frame below the bump pointer (size() == next_):
     *  frames never handed out take no memory. */
    std::vector<bool> in_use_;
};

} // namespace hiss

#endif // HISS_MEM_FRAME_ALLOCATOR_H_
