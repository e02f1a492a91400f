/** @file Unit tests for per-CPU work queues and kworkers. */

#include <gtest/gtest.h>

#include <vector>

#include "os/kernel.h"
#include "os/workqueue.h"
#include "sim/logging.h"

namespace hiss {
namespace {

class WorkQueueTest : public ::testing::Test
{
  protected:
    WorkQueueTest()
        : ctx{events, stats, 33},
          kernel(ctx, 4, CpuCoreParams{}, quietParams())
    {
    }

    static KernelParams
    quietParams()
    {
        KernelParams params;
        params.housekeeping_period = 0;
        return params;
    }

    WorkItem
    makeItem(Tick duration, std::function<void(CpuCore &)> done)
    {
        WorkItem item;
        item.request.kind = ServiceKind::Signal;
        item.request.on_service_complete = std::move(done);
        item.duration = duration;
        return item;
    }

    EventQueue events;
    StatRegistry stats;
    SimContext ctx;
    Kernel kernel;
};

TEST_F(WorkQueueTest, ItemServicedOnSubmittingCore)
{
    for (int submit_core = 0; submit_core < 4; ++submit_core) {
        int serviced_on = -1;
        kernel.workQueue().push(
            makeItem(usToTicks(1),
                     [&](CpuCore &core) { serviced_on = core.index(); }),
            &kernel.core(submit_core));
        events.runUntil(events.now() + msToTicks(1));
        EXPECT_EQ(serviced_on, submit_core);
    }
}

TEST_F(WorkQueueTest, NullSubmitterRoutesToCoreZero)
{
    int serviced_on = -1;
    kernel.workQueue().push(
        makeItem(usToTicks(1),
                 [&](CpuCore &core) { serviced_on = core.index(); }),
        nullptr);
    events.runUntil(msToTicks(1));
    EXPECT_EQ(serviced_on, 0);
}

TEST_F(WorkQueueTest, FifoOrderWithinACore)
{
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        kernel.workQueue().push(
            makeItem(usToTicks(1),
                     [&order, i](CpuCore &) { order.push_back(i); }),
            &kernel.core(2));
    events.runUntil(msToTicks(2));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(WorkQueueTest, CountersTrackPushAndCompletion)
{
    for (int i = 0; i < 3; ++i)
        kernel.workQueue().push(makeItem(usToTicks(1), nullptr),
                                &kernel.core(0));
    EXPECT_EQ(kernel.workQueue().pushed(), 3u);
    events.runUntil(msToTicks(2));
    EXPECT_EQ(kernel.workQueue().completed(), 3u);
    EXPECT_EQ(kernel.workQueue().totalDepth(), 0u);
}

TEST_F(WorkQueueTest, ParallelServiceAcrossCores)
{
    // Items on different cores finish concurrently: total elapsed
    // time is far less than the serialized sum.
    const Tick item_cost = usToTicks(50);
    int done = 0;
    for (int c = 0; c < 4; ++c)
        kernel.workQueue().push(
            makeItem(item_cost, [&](CpuCore &) { ++done; }),
            &kernel.core(c));
    events.runUntil(usToTicks(90));
    EXPECT_EQ(done, 4);
}

TEST_F(WorkQueueTest, DepthPerCore)
{
    kernel.workQueue().push(makeItem(usToTicks(100), nullptr),
                            &kernel.core(1));
    kernel.workQueue().push(makeItem(usToTicks(100), nullptr),
                            &kernel.core(1));
    // One may already be claimed by the worker; at least one queued.
    EXPECT_GE(kernel.workQueue().depth(1) + 1, 2u);
    EXPECT_EQ(kernel.workQueue().depth(0), 0u);
}

TEST_F(WorkQueueTest, LatencyDistributionSampled)
{
    kernel.workQueue().push(makeItem(usToTicks(1), nullptr),
                            &kernel.core(0));
    events.runUntil(msToTicks(1));
    const auto *latency = dynamic_cast<const Distribution *>(
        stats.find("ssr_wq.latency"));
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count(), 1u);
}

TEST_F(WorkQueueTest, PopEmptyPanics)
{
    EXPECT_DEATH(kernel.workQueue().pop(0), "empty");
}

} // namespace
} // namespace hiss
