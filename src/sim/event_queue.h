/**
 * @file
 * Discrete-event simulation engine.
 *
 * A single EventQueue drives the whole simulated SoC. Events are
 * callbacks scheduled at an absolute tick with a priority; events at
 * the same (tick, priority) execute in scheduling (FIFO) order, which
 * keeps runs deterministic. Scheduling returns an EventId that can be
 * used to cancel the event before it fires.
 *
 * Hot-path design: an EventId packs a slot-table index and a
 * generation counter, so cancel()/pending() are O(1) array probes
 * instead of hash-set lookups, and no per-event bookkeeping survives
 * execution. Callbacks use EventCallback (inline small-buffer
 * storage, so scheduling does not heap-allocate) and live in the
 * slot table; the heap orders 24-byte POD keys, so every sift is a
 * few trivial copies with no callback moves. Cancelled events free
 * their callback immediately and their key is deleted lazily when it
 * surfaces at the top of the heap; a compaction pass keeps heap
 * memory bounded under cancel-heavy workloads.
 */

#ifndef HISS_SIM_EVENT_QUEUE_H_
#define HISS_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_callback.h"
#include "sim/ticks.h"
#include "snap/snap.h"

namespace hiss {

/** Opaque handle identifying a scheduled event. */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
inline constexpr EventId kInvalidEventId = 0;

/**
 * Well-known event priorities. Lower numeric value runs first at a
 * given tick. Device/interrupt activity precedes scheduler decisions,
 * which precede plain work completion, mirroring how hardware
 * interrupt delivery preempts software within a cycle.
 */
enum class EventPriority : int {
    Interrupt = 0,  ///< Interrupt/IPI delivery.
    Device = 10,    ///< Device state machines (IOMMU, GPU).
    Scheduler = 20, ///< OS scheduling decisions.
    Default = 30,   ///< Ordinary work completion.
    Stats = 40,     ///< Sampling/accounting; observes settled state.
};

/** The central discrete-event queue. */
class EventQueue
{
  public:
    using Callback = EventCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute tick @p when (must be >= now).
     * @param tag snapshot identity of the callback: names the
     *        schedule site plus the integers its closure captured so
     *        saveState() can serialize the event and restoreState()
     *        can rebuild it. Events scheduled without a tag are fine
     *        as long as none is pending when a snapshot is taken.
     * @return an EventId usable with cancel().
     */
    EventId schedule(Tick when, Callback fn,
                     EventPriority prio = EventPriority::Default,
                     const snap::Tag &tag = {});

    /** Schedule @p fn to run @p delay ticks from now. */
    EventId scheduleAfter(Tick delay, Callback fn,
                          EventPriority prio = EventPriority::Default,
                          const snap::Tag &tag = {});

    /**
     * Cancel a pending event. @return true if the event was pending
     * and is now cancelled; false if it already ran, was already
     * cancelled, or the id is invalid.
     */
    bool cancel(EventId id);

    /** @return true if the event is still pending. */
    bool pending(EventId id) const;

    /** Number of events awaiting execution. */
    std::size_t numPending() const { return num_pending_; }

    /** Total events executed so far. */
    std::uint64_t numExecuted() const { return executed_; }

    /** @return true when no events remain. */
    bool empty() const { return numPending() == 0; }

    /**
     * Execute the next event, advancing time to it.
     * @return false if the queue was empty.
     */
    bool step();

    /**
     * Run until simulated time reaches @p until (events exactly at
     * @p until are executed) or the queue drains. Time is left at
     * @p until if the queue still has later events, else at the last
     * executed event.
     */
    void runUntil(Tick until);

    /** Run until the queue is empty. */
    void run();

    /** Drop all pending events and reset time to zero. */
    void reset();

    /**
     * Heap entries currently held, including lazily-deleted cancelled
     * events awaiting compaction (bounded at ~2x numPending()).
     * Exposed for the bookkeeping-boundedness regression test.
     */
    std::size_t heapSize() const { return heap_.size(); }

    /** Slot-table capacity (bounded by peak concurrent events). */
    std::size_t slotTableSize() const { return slots_.size(); }

    /**
     * Exhaustive structural self-check for the invariant layer
     * (src/check): heap ordering, time monotonicity (no entry behind
     * `now`), slot/generation agreement, free-list consistency, and
     * the pending/dead accounting identities. O(heap + slots).
     * @return an empty string when consistent, else a description of
     * the first violation found.
     */
    std::string auditErrors() const;

    /**
     * Rebuilds the callback for a restored event from its tag.
     * Implemented by the system layer, which dispatches on
     * `tag.self.kind` to the owning component.
     */
    using TagResolver = std::function<Callback(const snap::Tag &)>;

    /**
     * Serialize the queue: time/sequence counters, the exact slot
     * table and free-list layout (so EventIds held by components
     * stay valid verbatim across restore), and every live event with
     * its tag. @throws snap::SnapshotError if a live event carries
     * no tag (its callback could not be rebuilt).
     */
    void saveState(snap::Writer &w) const;

    /**
     * Restore a queue saved by saveState() into this (empty) queue,
     * rebuilding each pending callback via @p resolve. The heap is
     * rebuilt with std::make_heap; the pop order is identical to the
     * saved queue's because (when, order) keys are unique.
     */
    void restoreState(snap::Reader &r, const TagResolver &resolve);

  private:
    /**
     * Heap key: 24-byte POD. `order` packs (priority, FIFO sequence)
     * into one integer — priority in the top 16 bits, a monotonic
     * sequence in the low 48 — so tie-breaking is a single compare
     * and sifts move trivially-copyable values.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t order;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    struct EntryCompare
    {
        // std::push_heap builds a max-heap; invert for earliest-first.
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.order > b.order;
        }
    };

    static std::uint64_t
    makeOrder(EventPriority prio, std::uint64_t seq)
    {
        return (static_cast<std::uint64_t>(static_cast<int>(prio))
                << 48)
            | seq;
    }

    static EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        // slot+1 keeps the id nonzero for every (slot, gen).
        return (static_cast<EventId>(slot + 1) << 32) | gen;
    }
    static std::uint32_t slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id >> 32) - 1;
    }
    static std::uint32_t genOf(EventId id)
    {
        return static_cast<std::uint32_t>(id);
    }

    /** True if the entry was cancelled after being pushed. */
    bool
    dead(const Entry &e) const
    {
        return slots_[e.slot].gen != e.gen;
    }

    /** Retire the slot backing @p e so its id stops matching. */
    void
    retireSlot(const Entry &e)
    {
        ++slots_[e.slot].gen;
        free_slots_.push_back(e.slot);
    }

    Entry popEntry();
    void dropDeadTop();
    void maybeCompact();

    /**
     * One pending event: its generation and its callback. The
     * callback is constructed here at schedule time and never moved
     * until execution (or destroyed at cancellation).
     */
    struct Slot
    {
        std::uint32_t gen = 1;
        Callback fn;
        /** Snapshot identity of fn; rewritten on every schedule(). */
        snap::Tag tag;
    };

    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t num_pending_ = 0;
    // HISS_STATE_EXEMPT(dead_in_heap_, save): save drops dead heap
    // entries so snapshots never carry them, and restore resets the
    // count
    std::size_t dead_in_heap_ = 0;
    std::vector<Entry> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
};

} // namespace hiss

#endif // HISS_SIM_EVENT_QUEUE_H_
