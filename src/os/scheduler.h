/**
 * @file
 * Per-core run-queue scheduler.
 *
 * Models the slice of Linux CFS/RT behaviour that matters for SSR
 * interference: priority preemption (threaded bottom halves preempt
 * user work immediately), wakeup-granularity preemption between
 * equal-priority threads (kworkers vs. user threads), idle-core
 * preference on wakeup (so SSR handlers land on sleeping cores and
 * pay the CC6 exit latency), and resched IPIs for remote preemption.
 */

#ifndef HISS_OS_SCHEDULER_H_
#define HISS_OS_SCHEDULER_H_

#include <deque>
#include <vector>

#include "cpu/core.h"
#include "os/thread.h"
#include "sim/sim_object.h"

namespace hiss {

/** Scheduler tuning parameters. */
struct SchedulerParams
{
    /** Minimum run time before an equal-priority wakeup preempts
     *  (CFS-style: a waking kworker waits out the running user
     *  thread's granularity before taking the core). */
    Tick wakeup_granularity = usToTicks(13);

    /**
     * A waking equal-priority thread whose recent CPU share is below
     * this preempts immediately (CFS vruntime credit: sleepers get
     * the core at once; CPU-heavy wakers wait out the granularity).
     */
    double instant_preempt_share = 0.35;
    /** Round-robin timeslice between equal-priority threads. */
    Tick timeslice = msToTicks(1);
    /** Duration of the resched-IPI top half. */
    Tick resched_ipi_cost = 250;
};

/** The run-queue scheduler; one instance manages all cores. */
class Scheduler : public SimObject
{
  public:
    Scheduler(SimContext &ctx, std::vector<CpuCore *> cores,
              const SchedulerParams &params);

    /** Begin running a Created thread. */
    void start(Thread *thread);

    /**
     * Make a Blocked/Sleeping thread runnable and place it.
     * @param from the core whose execution context performs the wake
     *        (nullptr for device/timer context). Local wakeups skip
     *        the resched IPI.
     */
    void wake(Thread *thread, CpuCore *from = nullptr);

    /** Put a running thread to sleep for @p duration (from a yield). */
    void sleepThread(Thread *thread, Tick duration);

    /** Mark a thread blocked (from a yield). */
    void blockThread(Thread *thread);

    /** Mark a thread finished (from a yield). */
    void finishThread(Thread *thread);

    /** Core has nothing attached: dispatch or let it idle. */
    void onCoreIdle(CpuCore &core);

    /** Burst boundary with a still-attached thread: maybe switch. */
    void onCoreBoundary(CpuCore &core);

    std::uint64_t ipisSent() const { return ipis_sent_; }
    std::uint64_t migrations() const { return migrations_; }

    /** Number of ready (queued) threads on a core (for tests). */
    std::size_t queueDepth(int core) const
    {
        return queues_[static_cast<std::size_t>(core)].size();
    }

    /** A core's run queue, front = next to pop (invariant audit). */
    const std::deque<Thread *> &queuedThreads(int core) const
    {
        return queues_[static_cast<std::size_t>(core)];
    }

    /// @name Snapshot support.
    /// @{
    /**
     * Build the resched IPI posted to @p core_index. Counter-neutral:
     * sendReschedIpi (the live path) bumps ipis_sent_ and sets
     * resched_pending_ around it, while snapshot restore calls it
     * directly to re-materialize an in-flight IPI without recounting.
     */
    Irq makeReschedIrq(int core_index);

    /** Walk the run queues (as thread ids, resolved through
     *  @p threadById on restore), pending IPIs and counters. */
    void snapIo(snap::Io &io,
                const std::function<Thread *(int)> &threadById);
    /** Rebuild the callback of a sched.* tagged event. */
    EventQueue::Callback
    rebuildEvent(const snap::Tag &tag,
                 const std::function<Thread *(int)> &threadById);
    /// @}

  private:
    EventQueue::Callback makePreemptCheck(CpuCore *target, Thread *waker);
    EventQueue::Callback makeSleepTimeout(Thread *thread);
    EventQueue::Callback makeIpiDelivery(CpuCore *target);
    CpuCore *placeThread(Thread *thread);
    Thread *popBest(int core_index);
    Thread *peekBest(int core_index) const;
    Thread *stealFromOtherCores(int thief_index);
    void enqueue(int core_index, Thread *thread);
    void sendReschedIpi(CpuCore &target);
    void maybePreempt(CpuCore &target, Thread *waker, CpuCore *from);

    // HISS_STATE_EXEMPT(cores_): wiring; borrowed core pointers bound
    // at construction
    std::vector<CpuCore *> cores_;
    // HISS_STATE_EXEMPT(params_): construction config, covered by the
    // snapshot config fingerprint
    SchedulerParams params_;
    std::vector<std::deque<Thread *>> queues_;
    std::vector<bool> resched_pending_;
    std::uint64_t ipis_sent_ = 0;
    std::uint64_t migrations_ = 0;
};

} // namespace hiss

#endif // HISS_OS_SCHEDULER_H_
