/** @file Unit tests for the run-queue scheduler. */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "cpu/core.h"
#include "os/scheduler.h"
#include "os/thread.h"
#include "sim/logging.h"

namespace hiss {
namespace {

/** Model that runs forever in fixed bursts, recording its cores. */
class SpinModel : public ExecutionModel
{
  public:
    explicit SpinModel(Tick burst = usToTicks(5)) : burst_(burst) {}

    BurstRequest
    nextBurst(CpuCore &core) override
    {
        cores_seen.push_back(core.index());
        BurstRequest br;
        br.kind = BurstRequest::Kind::Run;
        br.duration = burst_;
        return br;
    }

    void
    onBurstDone(CpuCore &, Tick ran, std::uint64_t, bool) override
    {
        total_ran += ran;
    }

    std::vector<int> cores_seen;
    Tick total_ran = 0;

  private:
    Tick burst_;
};

/** Model that blocks immediately (wakeable). */
class BlockerModel : public ExecutionModel
{
  public:
    BurstRequest
    nextBurst(CpuCore &core) override
    {
        BurstRequest br;
        if (runs_before_block > 0) {
            --runs_before_block;
            last_core = core.index();
            ++dispatches;
            br.kind = BurstRequest::Kind::Run;
            br.duration = usToTicks(2);
            return br;
        }
        br.kind = BurstRequest::Kind::Block;
        return br;
    }

    void onBurstDone(CpuCore &, Tick, std::uint64_t, bool) override {}

    int runs_before_block = 1;
    int dispatches = 0;
    int last_core = -1;
};

/**
 * A minimal kernel: wires cores to a Scheduler exactly the way
 * os::Kernel does, without the extra machinery (timers, workers).
 */
class MiniKernel : public CoreListener
{
  public:
    MiniKernel(SimContext &ctx, int num_cores)
    {
        CpuCoreParams params;
        for (int i = 0; i < num_cores; ++i)
            cores_.push_back(
                std::make_unique<CpuCore>(ctx, i, params, *this));
        std::vector<CpuCore *> ptrs;
        for (auto &core : cores_)
            ptrs.push_back(core.get());
        scheduler_ = std::make_unique<Scheduler>(ctx, ptrs,
                                                 SchedulerParams{});
    }

    void coreIdle(CpuCore &core) override
    {
        scheduler_->onCoreIdle(core);
    }
    void coreBoundary(CpuCore &core) override
    {
        scheduler_->onCoreBoundary(core);
    }
    void
    threadYielded(CpuCore &, Thread &thread,
                  const BurstRequest &request) override
    {
        switch (request.kind) {
          case BurstRequest::Kind::Sleep:
            scheduler_->sleepThread(&thread, request.duration);
            break;
          case BurstRequest::Kind::Block:
            scheduler_->blockThread(&thread);
            break;
          case BurstRequest::Kind::Finish:
            scheduler_->finishThread(&thread);
            break;
          case BurstRequest::Kind::Run:
            break;
        }
    }

    Scheduler &scheduler() { return *scheduler_; }
    CpuCore &core(int i) { return *cores_[static_cast<std::size_t>(i)]; }

  private:
    std::vector<std::unique_ptr<CpuCore>> cores_;
    std::unique_ptr<Scheduler> scheduler_;
};

class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest() : ctx{events, stats, 77}, kernel(ctx, 4) {}

    EventQueue events;
    StatRegistry stats;
    SimContext ctx;
    MiniKernel kernel;
};

TEST_F(SchedulerTest, StartDispatchesToIdleCore)
{
    SpinModel model;
    Thread t(1, "spin", kPrioUser, &model);
    kernel.scheduler().start(&t);
    EXPECT_EQ(t.state(), ThreadState::Running);
    events.runUntil(usToTicks(50));
    EXPECT_GT(model.total_ran, 0u);
}

TEST_F(SchedulerTest, ThreadsSpreadAcrossIdleCores)
{
    std::vector<std::unique_ptr<SpinModel>> models;
    std::vector<std::unique_ptr<Thread>> threads;
    for (int i = 0; i < 4; ++i) {
        models.push_back(std::make_unique<SpinModel>());
        threads.push_back(std::make_unique<Thread>(
            i + 1, "spin" + std::to_string(i), kPrioUser,
            models.back().get()));
        kernel.scheduler().start(threads[static_cast<std::size_t>(i)]
                                     .get());
    }
    events.runUntil(usToTicks(100));
    // Each thread got its own core.
    std::set<int> used;
    for (const auto &model : models) {
        ASSERT_FALSE(model->cores_seen.empty());
        used.insert(model->cores_seen.front());
    }
    EXPECT_EQ(used.size(), 4u);
}

TEST_F(SchedulerTest, PinnedThreadStaysOnItsCore)
{
    SpinModel model;
    Thread t(1, "pinned", kPrioUser, &model, 2);
    kernel.scheduler().start(&t);
    events.runUntil(msToTicks(2));
    for (const int c : model.cores_seen)
        EXPECT_EQ(c, 2);
}

TEST_F(SchedulerTest, PinnedToBadCoreIsFatal)
{
    SpinModel model;
    Thread t(1, "bad", kPrioUser, &model, 99);
    EXPECT_THROW(kernel.scheduler().start(&t), FatalError);
}

TEST_F(SchedulerTest, HigherPriorityPreemptsViaIpi)
{
    // Fill all four cores with user spinners.
    std::vector<std::unique_ptr<SpinModel>> models;
    std::vector<std::unique_ptr<Thread>> threads;
    for (int i = 0; i < 4; ++i) {
        models.push_back(std::make_unique<SpinModel>(msToTicks(5)));
        threads.push_back(std::make_unique<Thread>(
            i + 1, "user" + std::to_string(i), kPrioUser,
            models.back().get()));
        kernel.scheduler().start(threads.back().get());
    }
    events.runUntil(usToTicks(20));

    // Wake a high-priority kthread from device (nullptr) context.
    BlockerModel kmodel;
    Thread kthread(10, "kthread", kPrioBottomHalf, &kmodel);
    kernel.scheduler().start(&kthread);
    const std::uint64_t ipis_before = kernel.scheduler().ipisSent();
    events.runUntil(usToTicks(40));
    // It preempted a user thread quickly (well before the 5 ms burst
    // would have completed).
    EXPECT_EQ(kmodel.dispatches, 1);
    EXPECT_GE(kernel.scheduler().ipisSent(), ipis_before);
}

TEST_F(SchedulerTest, EqualPriorityWaitsForGranularity)
{
    // One busy core scenario: pin both threads to core 0.
    SpinModel running_model(msToTicks(10));
    Thread running(1, "runner", kPrioUser, &running_model, 0);
    kernel.scheduler().start(&running);
    events.runUntil(usToTicks(5));

    BlockerModel waiter_model;
    Thread waiter(2, "waiter", kPrioUser, &waiter_model, 0);
    kernel.scheduler().start(&waiter);
    // Not dispatched instantly...
    EXPECT_EQ(waiter_model.dispatches, 0);
    // ...but within a few wakeup granularities.
    events.runUntil(usToTicks(5) + SchedulerParams{}.wakeup_granularity
                    + usToTicks(40));
    EXPECT_EQ(waiter_model.dispatches, 1);
}

TEST_F(SchedulerTest, SleepThreadWakesAfterDuration)
{
    // A model that sleeps once, then spins.
    class SleeperModel : public ExecutionModel
    {
      public:
        BurstRequest
        nextBurst(CpuCore &) override
        {
            BurstRequest br;
            if (!slept) {
                slept = true;
                br.kind = BurstRequest::Kind::Sleep;
                br.duration = usToTicks(100);
                return br;
            }
            ++runs_after_sleep;
            br.kind = BurstRequest::Kind::Run;
            br.duration = usToTicks(1);
            return br;
        }
        void onBurstDone(CpuCore &, Tick, std::uint64_t, bool) override
        {
        }
        bool slept = false;
        int runs_after_sleep = 0;
    };

    SleeperModel model;
    Thread t(1, "sleeper", kPrioUser, &model);
    kernel.scheduler().start(&t);
    events.runUntil(usToTicks(50));
    EXPECT_EQ(model.runs_after_sleep, 0);
    EXPECT_EQ(t.state(), ThreadState::Sleeping);
    events.runUntil(usToTicks(400));
    EXPECT_GT(model.runs_after_sleep, 0);
}

TEST_F(SchedulerTest, SpuriousWakeIsIgnored)
{
    SpinModel model;
    Thread t(1, "spin", kPrioUser, &model);
    kernel.scheduler().start(&t);
    events.runUntil(usToTicks(10));
    kernel.scheduler().wake(&t); // Already running.
    events.runUntil(usToTicks(20));
    EXPECT_EQ(t.state(), ThreadState::Running);
}

TEST_F(SchedulerTest, FinishedThreadLeavesCore)
{
    class OneShotModel : public ExecutionModel
    {
      public:
        BurstRequest
        nextBurst(CpuCore &) override
        {
            BurstRequest br;
            if (done) {
                br.kind = BurstRequest::Kind::Finish;
                return br;
            }
            done = true;
            br.kind = BurstRequest::Kind::Run;
            br.duration = usToTicks(3);
            return br;
        }
        void onBurstDone(CpuCore &, Tick, std::uint64_t, bool) override
        {
        }
        bool done = false;
    };

    OneShotModel model;
    Thread t(1, "oneshot", kPrioUser, &model);
    kernel.scheduler().start(&t);
    events.runUntil(msToTicks(1));
    EXPECT_EQ(t.state(), ThreadState::Finished);
    EXPECT_TRUE(kernel.core(0).canDispatch()
                || kernel.core(0).asleepOrWaking());
}

TEST_F(SchedulerTest, QueueDepthReflectsBacklog)
{
    // Five spinners on a 4-core machine: one must queue.
    std::vector<std::unique_ptr<SpinModel>> models;
    std::vector<std::unique_ptr<Thread>> threads;
    for (int i = 0; i < 5; ++i) {
        models.push_back(std::make_unique<SpinModel>(msToTicks(10)));
        std::string name = "s";
        name += std::to_string(i);
        threads.push_back(std::make_unique<Thread>(
            i + 1, name, kPrioUser, models.back().get()));
        kernel.scheduler().start(threads.back().get());
    }
    std::size_t queued = 0;
    for (int c = 0; c < 4; ++c)
        queued += kernel.scheduler().queueDepth(c);
    EXPECT_EQ(queued, 1u);
}

} // namespace
} // namespace hiss
