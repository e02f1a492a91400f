/**
 * @file
 * Kernel work queues and kworker execution models.
 *
 * Models Linux's *per-CPU bound* work queues (what the
 * amd_iommu_v2 driver allocates): a work item executes on the
 * kworker of the core that submitted it. This is why steering all
 * SSR interrupts to one core concentrates the whole handling chain
 * there (paper Section V-A), and why the default spread policy
 * scatters service work across every core. Workers run at
 * user-equivalent priority, so CPU-resident applications can delay
 * them — the mechanism behind the paper's GPU slowdowns — and the
 * QoS governor can inject exponential-backoff delays before each
 * item (Fig. 11).
 */

#ifndef HISS_OS_WORKQUEUE_H_
#define HISS_OS_WORKQUEUE_H_

#include <deque>
#include <optional>
#include <vector>

#include "os/scheduler.h"
#include "os/services.h"
#include "os/thread.h"
#include "sim/logging.h"
#include "sim/sim_object.h"

namespace hiss {

class QosGovernor;
class FaultInjector;
class Kernel;

/** A per-CPU bound work queue drained by per-core kworkers. */
class WorkQueue : public SimObject
{
  public:
    WorkQueue(SimContext &ctx, const std::string &name,
              Scheduler &scheduler, int num_cores);

    /** Attach the kworker thread bound to @p core. */
    void addWorker(Thread *worker, int core);

    /**
     * Enqueue an item on the submitting core's sub-queue and wake
     * its kworker.
     * @param from submitting core (nullptr routes to core 0).
     */
    void push(WorkItem item, CpuCore *from);

    bool empty(int core) const
    {
        return queues_[static_cast<std::size_t>(core)].empty();
    }
    std::size_t depth(int core) const
    {
        return queues_[static_cast<std::size_t>(core)].size();
    }
    std::size_t totalDepth() const;

    /** Pop the oldest item on @p core's sub-queue; panics if empty. */
    WorkItem pop(int core);

    std::uint64_t pushed() const { return pushed_; }
    std::uint64_t completed() const { return completed_; }

    /**
     * Items popped by a kworker but not yet completed. Together with
     * pushed/completed/totalDepth this closes the conservation
     * identity pushed == completed + queued + in-service that the
     * invariant layer checks at every sweep.
     */
    std::uint64_t inService() const { return in_service_; }

    void noteCompleted()
    {
        if (in_service_ == 0)
            panic("WorkQueue %s: completion without a popped item",
                  name().c_str());
        --in_service_;
        ++completed_;
    }

    /** Record queue latency (push -> service start). */
    void sampleLatency(Tick latency)
    {
        latency_.sample(static_cast<double>(latency));
    }

    /// @name Snapshot support (queued items + conservation counters).
    /// @{
    void snapSave(snap::Writer &w) const;
    void snapRestore(snap::Reader &r, const RequestRebuild &rebuild);
    /// @}

  private:
    Scheduler &scheduler_;
    std::vector<std::deque<WorkItem>> queues_;
    // HISS_STATE_EXEMPT(workers_): wiring; kworker threads are owned
    // and serialized by the kernel thread table, re-attached via
    // addWorker at construction
    std::vector<Thread *> workers_;
    std::uint64_t pushed_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t in_service_ = 0;
    Distribution &latency_;
};

/**
 * Execution model of a per-core kworker: pops items off its core's
 * sub-queue, applies QoS backpressure delays when the governor says
 * SSR time is over budget, services each item as a kernel-mode burst
 * and hands it to Kernel::completeWork when the burst is done.
 */
class WorkerModel : public ExecutionModel
{
  public:
    /**
     * @param kernel   the kernel that completes serviced items.
     * @param queue    the queue this worker serves.
     * @param core     the core this worker is bound to.
     * @param governor optional QoS governor consulted before each
     *                 SSR item (nullptr = no throttling).
     * @param faults   optional fault injector that can stall this
     *                 worker before it takes an item (nullptr = none).
     */
    WorkerModel(Kernel &kernel, WorkQueue &queue, int core,
                QosGovernor *governor = nullptr,
                FaultInjector *faults = nullptr);

    BurstRequest nextBurst(CpuCore &core) override;
    void onBurstDone(CpuCore &core, Tick ran,
                     std::uint64_t instructions_done,
                     bool completed) override;

    /** Current exponential-backoff delay (0 = not backing off). */
    Tick backoffDelay() const { return backoff_; }

    /// @name Snapshot support (in-service item + backoff state).
    /// @{
    void snapSave(snap::Writer &w) const;
    void snapRestore(snap::Reader &r, const RequestRebuild &rebuild);
    /// @}

  private:
    Kernel &kernel_;
    WorkQueue &queue_;
    // HISS_STATE_EXEMPT(core_): identity; one worker model per core,
    // fixed at construction
    int core_;
    // HISS_STATE_EXEMPT(governor_): wiring; borrowed governor pointer
    // bound at construction
    QosGovernor *governor_;
    // HISS_STATE_EXEMPT(faults_): wiring; borrowed injector pointer
    // bound at construction
    FaultInjector *faults_;
    std::optional<WorkItem> current_;
    Tick remaining_ = 0;
    Tick backoff_ = 0;
};

} // namespace hiss

#endif // HISS_OS_WORKQUEUE_H_
