/** @file Unit tests for the Kernel: wiring, timers, irq routing. */

#include <gtest/gtest.h>

#include <memory>

#include "os/kernel.h"
#include "sim/logging.h"

namespace hiss {
namespace {

class KernelTest : public ::testing::Test
{
  protected:
    KernelTest() : ctx{events, stats, 5} {}

    std::unique_ptr<Kernel>
    makeKernel(int cores = 4, KernelParams params = {})
    {
        return std::make_unique<Kernel>(ctx, cores, CpuCoreParams{},
                                        params);
    }

    EventQueue events;
    StatRegistry stats;
    SimContext ctx;
};

TEST_F(KernelTest, ConstructionWiresCores)
{
    auto kernel = makeKernel();
    EXPECT_EQ(kernel->numCores(), 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(kernel->core(i).index(), i);
    EXPECT_EQ(kernel->corePointers().size(), 4u);
}

TEST_F(KernelTest, RejectsZeroCores)
{
    EXPECT_THROW(makeKernel(0), FatalError);
}

TEST_F(KernelTest, HousekeepingTimerFiresOnEveryCore)
{
    auto kernel = makeKernel();
    events.runUntil(msToTicks(5));
    for (int i = 0; i < 4; ++i)
        EXPECT_GT(kernel->procInterrupts().irqCount("timer", i), 0u)
            << "core " << i;
}

TEST_F(KernelTest, HousekeepingCanBeDisabled)
{
    KernelParams params;
    params.housekeeping_period = 0;
    auto kernel = makeKernel(4, params);
    events.runUntil(msToTicks(5));
    EXPECT_EQ(kernel->procInterrupts().totalFor("timer"), 0u);
}

TEST_F(KernelTest, IdleCoresReachCc6)
{
    auto kernel = makeKernel();
    events.runUntil(msToTicks(10));
    kernel->finalizeStats();
    for (int i = 0; i < 4; ++i) {
        const double cc6 =
            static_cast<double>(kernel->core(i).cc6Ticks())
            / static_cast<double>(msToTicks(10));
        EXPECT_GT(cc6, 0.5) << "core " << i;
    }
}

TEST_F(KernelTest, DeliverIrqCountsInProcStats)
{
    auto kernel = makeKernel();
    Irq irq;
    irq.label = "custom";
    irq.on_start = [](CpuCore &) { return Tick{100}; };
    kernel->deliverIrq(2, std::move(irq));
    events.runUntil(msToTicks(1));
    EXPECT_EQ(kernel->procInterrupts().irqCount("custom", 2), 1u);
    EXPECT_EQ(kernel->procInterrupts().irqCount("custom", 0), 0u);
}

TEST_F(KernelTest, DeliverIrqToBadCorePanics)
{
    auto kernel = makeKernel();
    Irq irq;
    irq.label = "x";
    EXPECT_DEATH(kernel->deliverIrq(7, std::move(irq)), "bad core");
}

TEST_F(KernelTest, QosGovernorOptIn)
{
    auto plain = makeKernel();
    EXPECT_EQ(plain->qosGovernor(), nullptr);

    // A second kernel needs its own stats/event context.
    EventQueue events2;
    StatRegistry stats2;
    SimContext ctx2{events2, stats2, 6};
    KernelParams params;
    params.qos.enabled = true;
    params.qos.threshold = 0.05;
    Kernel with_qos(ctx2, 4, CpuCoreParams{}, params);
    EXPECT_NE(with_qos.qosGovernor(), nullptr);
}

TEST_F(KernelTest, TotalSsrTicksAggregates)
{
    auto kernel = makeKernel();
    Irq ssr;
    ssr.label = "fake_ssr";
    ssr.ssr_related = true;
    ssr.on_start = [](CpuCore &) { return usToTicks(5); };
    kernel->deliverIrq(0, std::move(ssr));
    events.runUntil(msToTicks(1));
    EXPECT_GE(kernel->totalSsrTicks(), usToTicks(5));
}

TEST_F(KernelTest, CreateThreadAssignsUniqueIds)
{
    auto kernel = makeKernel();
    // kworkers already consumed some ids; new ids must be distinct.
    class NullModel : public ExecutionModel
    {
        BurstRequest
        nextBurst(CpuCore &) override
        {
            BurstRequest br;
            br.kind = BurstRequest::Kind::Finish;
            return br;
        }
        void onBurstDone(CpuCore &, Tick, std::uint64_t, bool) override
        {
        }
    };
    NullModel model;
    Thread *a = kernel->createThread("a", kPrioUser, &model);
    Thread *b = kernel->createThread("b", kPrioUser, &model);
    EXPECT_NE(a->id(), b->id());
    EXPECT_EQ(a->name(), "a");
}

TEST_F(KernelTest, WorkQueueServicesItemsAcrossSubmittingCores)
{
    auto kernel = makeKernel();
    int completions = 0;
    int serviced_on_core = -1;
    WorkItem item;
    item.duration = usToTicks(2);
    item.request.kind = ServiceKind::Signal;
    item.request.on_service_complete = [&](CpuCore &core) {
        ++completions;
        serviced_on_core = core.index();
    };
    kernel->workQueue().push(std::move(item), &kernel->core(1));
    events.runUntil(msToTicks(2));
    EXPECT_EQ(completions, 1);
    // Per-CPU bound queue: serviced on the submitting core.
    EXPECT_EQ(serviced_on_core, 1);
    EXPECT_EQ(kernel->workQueue().completed(), 1u);
}

} // namespace
} // namespace hiss
