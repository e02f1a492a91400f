#include "sim/event_queue.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "sim/logging.h"

namespace hiss {

EventId
EventQueue::schedule(Tick when, Callback fn, EventPriority prio,
                     const snap::Tag &tag)
{
    if (when < now_)
        panic("EventQueue: scheduling event in the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[slot];
    s.fn = std::move(fn);
    // Always overwrite, even with an empty tag: a stale tag from a
    // previous tenant of this slot must never describe the new event.
    s.tag = tag;
    heap_.push_back(Entry{when, makeOrder(prio, next_seq_++), slot,
                          s.gen});
    std::push_heap(heap_.begin(), heap_.end(), EntryCompare{});
    ++num_pending_;
    return makeId(slot, s.gen);
}

EventId
EventQueue::scheduleAfter(Tick delay, Callback fn, EventPriority prio,
                          const snap::Tag &tag)
{
    return schedule(now_ + delay, std::move(fn), prio, tag);
}

bool
EventQueue::cancel(EventId id)
{
    if (!pending(id))
        return false;
    const std::uint32_t slot = slotOf(id);
    // Bumping the generation orphans the heap entry; it is skipped
    // when it reaches the top, or culled earlier by compaction. The
    // callback (and any resources it captured) dies right now.
    ++slots_[slot].gen;
    slots_[slot].fn.reset();
    free_slots_.push_back(slot);
    --num_pending_;
    ++dead_in_heap_;
    maybeCompact();
    return true;
}

bool
EventQueue::pending(EventId id) const
{
    if (id == kInvalidEventId)
        return false;
    const std::uint32_t slot = slotOf(id);
    return slot < slots_.size() && slots_[slot].gen == genOf(id);
}

EventQueue::Entry
EventQueue::popEntry()
{
    std::pop_heap(heap_.begin(), heap_.end(), EntryCompare{});
    const Entry e = heap_.back();
    heap_.pop_back();
    return e;
}

void
EventQueue::dropDeadTop()
{
    popEntry();
    --dead_in_heap_;
}

void
EventQueue::maybeCompact()
{
    // Lazy deletion alone lets far-future cancelled events pile up in
    // the heap; rebuild once they dominate so memory stays bounded at
    // ~2x the live event count.
    if (dead_in_heap_ < 64 || dead_in_heap_ * 2 < heap_.size())
        return;
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Entry &e) {
                                   return dead(e);
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), EntryCompare{});
    dead_in_heap_ = 0;
}

bool
EventQueue::step()
{
    while (!heap_.empty()) {
        if (dead(heap_.front())) {
            dropDeadTop();
            continue;
        }
        const Entry e = popEntry();
        // Move the callback out before invoking it: the callback may
        // schedule new events, which can grow (reallocate) slots_.
        Callback fn = std::move(slots_[e.slot].fn);
        retireSlot(e);
        --num_pending_;
        now_ = e.when;
        ++executed_;
        fn();
        return true;
    }
    return false;
}

void
EventQueue::runUntil(Tick until)
{
    for (;;) {
        while (!heap_.empty() && dead(heap_.front()))
            dropDeadTop();
        if (heap_.empty() || heap_.front().when > until)
            break;
        step();
    }
    if (now_ < until)
        now_ = until;
}

void
EventQueue::run()
{
    while (step()) {
    }
}

std::string
EventQueue::auditErrors() const
{
    char buf[160];
    const auto fail = [&buf](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        return std::string(buf);
    };

    if (!std::is_heap(heap_.begin(), heap_.end(), EntryCompare{}))
        return fail("heap property violated (%zu entries)",
                    heap_.size());
    if (heap_.size() != num_pending_ + dead_in_heap_)
        return fail("heap size %zu != pending %zu + dead %zu",
                    heap_.size(), num_pending_, dead_in_heap_);
    if (num_pending_ + free_slots_.size() != slots_.size())
        return fail("slot accounting: pending %zu + free %zu != "
                    "table %zu",
                    num_pending_, free_slots_.size(), slots_.size());

    // Every slot must be referenced by exactly one live heap entry or
    // sit on the free list — never both, never neither.
    std::vector<std::uint8_t> live(slots_.size(), 0);
    std::size_t dead_seen = 0;
    for (const Entry &e : heap_) {
        if (e.slot >= slots_.size())
            return fail("heap entry references slot %u beyond table "
                        "size %zu",
                        e.slot, slots_.size());
        if (e.when < now_)
            return fail("entry at tick %llu is behind now %llu",
                        static_cast<unsigned long long>(e.when),
                        static_cast<unsigned long long>(now_));
        if (dead(e)) {
            ++dead_seen;
            continue;
        }
        if (live[e.slot]++)
            return fail("slot %u referenced by two live heap entries",
                        e.slot);
    }
    if (dead_seen != dead_in_heap_)
        return fail("dead entry count %zu != recorded %zu", dead_seen,
                    dead_in_heap_);
    for (const std::uint32_t slot : free_slots_) {
        if (slot >= slots_.size())
            return fail("free list references slot %u beyond table "
                        "size %zu",
                        slot, slots_.size());
        if (live[slot] == 1)
            return fail("slot %u is both live and on the free list",
                        slot);
        if (live[slot] == 2)
            return fail("slot %u appears twice on the free list",
                        slot);
        live[slot] = 2;
    }
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
        if (!live[slot])
            return fail("slot %zu is neither live nor free", slot);
    }
    return {};
}

void
EventQueue::saveState(snap::Writer &w) const
{
    w.section("events");
    w.u64(now_);
    w.u64(next_seq_);
    w.u64(executed_);

    // Exact slot-table layout: EventIds stored inside components
    // (watchdogs, wake timers, ...) are serialized verbatim, so the
    // restored table must reproduce every (slot, gen) pair and the
    // free-list order that future schedules will consume.
    w.u64(slots_.size());
    for (const Slot &s : slots_)
        w.u32(s.gen);
    w.u64(free_slots_.size());
    for (const std::uint32_t slot : free_slots_)
        w.u32(slot);

    // Live events, sorted by (when, order) for a canonical byte
    // stream; dead heap residue is dropped (unobservable).
    std::vector<Entry> live;
    live.reserve(num_pending_);
    for (const Entry &e : heap_) {
        if (!dead(e))
            live.push_back(e);
    }
    std::sort(live.begin(), live.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  return a.order < b.order;
              });
    w.u64(live.size());
    for (const Entry &e : live) {
        const snap::Tag &tag = slots_[e.slot].tag;
        if (tag.empty())
            throw snap::SnapshotError(
                "cannot snapshot: live event at tick " +
                std::to_string(e.when) +
                " has no tag (untagged schedule site)");
        w.u64(e.when);
        w.u64(e.order);
        w.u32(e.slot);
        w.u32(e.gen);
        w.tag(tag);
    }
}

void
EventQueue::restoreState(snap::Reader &r, const TagResolver &resolve)
{
    reset();
    r.section("events");
    now_ = r.u64();
    next_seq_ = r.u64();
    executed_ = r.u64();

    slots_.resize(r.u64());
    for (Slot &s : slots_)
        s.gen = r.u32();
    free_slots_.resize(r.u64());
    for (std::uint32_t &slot : free_slots_)
        slot = r.u32();

    const std::uint64_t live = r.u64();
    heap_.reserve(live);
    for (std::uint64_t i = 0; i < live; ++i) {
        Entry e;
        e.when = r.u64();
        e.order = r.u64();
        e.slot = r.u32();
        e.gen = r.u32();
        if (e.slot >= slots_.size())
            throw snap::SnapshotError(
                "snapshot corrupt: event references slot " +
                std::to_string(e.slot) + " beyond table size " +
                std::to_string(slots_.size()));
        const snap::Tag tag = r.tag();
        Slot &s = slots_[e.slot];
        s.tag = tag;
        s.fn = resolve(tag);
        heap_.push_back(e);
    }
    // Heap layout after make_heap may differ from the saved queue's
    // internal array, but the pop sequence is identical because the
    // (when, order) keys are unique.
    std::make_heap(heap_.begin(), heap_.end(), EntryCompare{});
    num_pending_ = live;
    dead_in_heap_ = 0;
}

void
EventQueue::reset()
{
    heap_.clear();
    slots_.clear();
    free_slots_.clear();
    num_pending_ = 0;
    dead_in_heap_ = 0;
    now_ = 0;
    next_seq_ = 0;
    executed_ = 0;
}

} // namespace hiss
