/** @file Unit tests for the discrete-event queue. */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "snap/snap.h"

namespace hiss {
namespace {

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.numPending(), 0u);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFifoWithinPriority)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(10, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PriorityOrdersSameTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(2); }, EventPriority::Default);
    q.schedule(10, [&] { order.push_back(0); }, EventPriority::Interrupt);
    q.schedule(10, [&] { order.push_back(1); }, EventPriority::Device);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    int fired = 0;
    const EventId id = q.schedule(10, [&] { ++fired; });
    EXPECT_TRUE(q.pending(id));
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.pending(id));
    EXPECT_FALSE(q.cancel(id)); // Double cancel is rejected.
    q.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelAfterExecutionFails)
{
    EventQueue q;
    const EventId id = q.schedule(10, [] {});
    q.run();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100, [&] {
        q.scheduleAfter(50, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.schedule(30, [&] { ++fired; });
    q.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 20u);
    q.runUntil(100);
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
    EventQueue q;
    q.runUntil(500);
    EXPECT_EQ(q.now(), 500u);
}

TEST(EventQueue, EventsScheduledDuringRunExecute)
{
    EventQueue q;
    std::vector<Tick> times;
    q.schedule(10, [&] {
        times.push_back(q.now());
        q.schedule(10, [&] { times.push_back(q.now()); });
    });
    q.run();
    EXPECT_EQ(times, (std::vector<Tick>{10, 10}));
}

TEST(EventQueue, NumExecutedCounts)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(static_cast<Tick>(i + 1), [] {});
    q.run();
    EXPECT_EQ(q.numExecuted(), 7u);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.step();
    q.reset();
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.numExecuted(), 0u);
}

TEST(EventQueue, StaleIdsDoNotAliasReusedSlots)
{
    EventQueue q;
    const EventId a = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(a));
    // The new event reuses a's slot; the stale id must not match it.
    const EventId b = q.schedule(20, [] {});
    EXPECT_NE(a, b);
    EXPECT_FALSE(q.pending(a));
    EXPECT_FALSE(q.cancel(a));
    EXPECT_TRUE(q.pending(b));
    q.run();
    EXPECT_FALSE(q.pending(b));
    EXPECT_EQ(q.numExecuted(), 1u);
}

TEST(EventQueue, LargeCapturesExecute)
{
    // Captures beyond the inline callback buffer take the heap path.
    EventQueue q;
    struct Big
    {
        std::uint64_t words[16] = {};
    } big;
    big.words[15] = 7;
    std::uint64_t seen = 0;
    q.schedule(10, [big, &seen] { seen = big.words[15]; });
    q.run();
    EXPECT_EQ(seen, 7u);
}

// Regression: the seed implementation kept an unordered_set entry per
// live event and per cancelled-but-unpopped event, so cancel-heavy
// long runs grew without bound. Bookkeeping must stay bounded by the
// peak number of concurrently pending events, not by history.
TEST(EventQueue, BookkeepingBoundedUnderChurn)
{
    EventQueue q;
    constexpr int kCycles = 100000;
    std::uint64_t fired = 0;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
        q.schedule(q.now() + 1, [&fired] { ++fired; });
        // A far-future event cancelled immediately: lazy deletion
        // would strand it in the heap for the whole run.
        const EventId doomed =
            q.schedule(q.now() + 1000000000, [] {});
        ASSERT_TRUE(q.cancel(doomed));
        ASSERT_TRUE(q.step());
    }
    EXPECT_EQ(fired, static_cast<std::uint64_t>(kCycles));
    EXPECT_EQ(q.numPending(), 0u);
    EXPECT_LE(q.heapSize(), 256u);
    EXPECT_LE(q.slotTableSize(), 256u);
}

/** Overwrite the little-endian word at @p at of @p bytes. */
template <typename T>
void
patchWord(std::string &bytes, std::size_t at, T value)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        bytes[at + i] = static_cast<char>((value >> (i * 8)) & 0xffU);
}

/** Restore @p payload into a fresh queue (no live events to resolve). */
void
restoreQueue(const std::string &payload)
{
    EventQueue q;
    snap::Reader r(payload);
    q.restoreState(r, [](const snap::Tag &) -> EventQueue::Callback {
        return [] {};
    });
}

TEST(EventQueue, RestoreRejectsFreeSlotOutsideTable)
{
    // One executed event leaves a one-slot table whose slot is free.
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    snap::Writer w;
    q.saveState(w);
    std::string payload = w.buffer();
    restoreQueue(payload);
    // The free list ends just before the u64 live-event count (0).
    patchWord<std::uint32_t>(payload, payload.size() - 12, 1000000);
    EXPECT_THROW(restoreQueue(payload), snap::SnapshotError);
}

TEST(EventQueue, RestoreRejectsSlotCountBeyondPayload)
{
    EventQueue q;
    snap::Writer w;
    q.saveState(w);
    std::string payload = w.buffer();
    restoreQueue(payload);
    // The slot count follows the section marker ("events") and the
    // clock, sequence and executed-event words.
    const std::size_t slot_count_at = 4 + 8 + 6 + 3 * 8;
    patchWord<std::uint64_t>(payload, slot_count_at, std::uint64_t{1} << 62);
    EXPECT_THROW(restoreQueue(payload), snap::SnapshotError);
}

TEST(EventQueueDeath, SchedulingInPastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(50, [] {}), "past");
}

} // namespace
} // namespace hiss
