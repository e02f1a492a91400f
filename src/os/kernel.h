/**
 * @file
 * The OS kernel model.
 *
 * Ties together the cores, scheduler, work queues, system services,
 * SSR driver(s), QoS governor, and housekeeping timers. Implements
 * CoreListener so cores hand scheduling decisions back to the OS,
 * and routes all device interrupt deliveries so they appear in the
 * /proc/interrupts mirror.
 */

#ifndef HISS_OS_KERNEL_H_
#define HISS_OS_KERNEL_H_

#include <memory>
#include <vector>

#include "cpu/core.h"
#include "mem/address_space_dir.h"
#include "mem/frame_allocator.h"
#include "mem/page_table.h"
#include "os/proc_stats.h"
#include "os/qos_governor.h"
#include "os/scheduler.h"
#include "os/services.h"
#include "os/ssr_driver.h"
#include "os/thread.h"
#include "os/workqueue.h"
#include "sim/sim_object.h"

namespace hiss {

/** Kernel-wide configuration. */
struct KernelParams
{
    SchedulerParams sched;
    QosParams qos;
    ServiceCostParams service_costs;

    /**
     * Per-core OS housekeeping timer period (0 disables): models
     * residual timer/RCU noise (~2k wakeups/s/core on idle Linux).
     */
    Tick housekeeping_period = usToTicks(500);
    /** CPU cost of one housekeeping pass. */
    Tick housekeeping_cost = usToTicks(2);

    /** Simulated DRAM size in 4 KiB frames (32 GiB default,
     *  matching the paper's Table II testbed). */
    std::uint64_t dram_frames = 32ULL * 1024 * 1024 * 1024 / kPageBytes;
};

/** The operating system. */
class Kernel : public SimObject, public CoreListener
{
  public:
    /**
     * Builds the kernel and its CPU cores.
     * @param num_cores  CPU core count (paper testbed: 4).
     * @param core_params shared per-core parameters.
     */
    Kernel(SimContext &ctx, int num_cores,
           const CpuCoreParams &core_params, const KernelParams &params);
    ~Kernel() override;

    /// @name CoreListener interface.
    /// @{
    void coreIdle(CpuCore &core) override;
    void coreBoundary(CpuCore &core) override;
    void threadYielded(CpuCore &core, Thread &thread,
                       const BurstRequest &request) override;
    /// @}

    /**
     * Attach a device request source: builds an SsrDriver and its
     * bottom-half kthread for it.
     * @param name            driver name ("iommu_drv").
     * @param source          the device queue to drain.
     * @param driver_params   split-handler timing/config.
     * @param bh_affinity     pin the bottom-half kthread to a core
     *                        (kAffinityAny = unpinned; the interrupt
     *                        steering mitigation pins it).
     */
    SsrDriver &attachSsrSource(const std::string &name,
                               RequestSource &source,
                               const SsrDriverParams &driver_params,
                               int bh_affinity = kAffinityAny);

    /**
     * Finish a work item its kworker has serviced on @p core: the
     * service's effects and stats, then the driver that tracks the
     * request (it may suppress a zombie completion), then the device
     * callback.
     */
    void completeWork(const WorkItem &item, CpuCore &core);

    /**
     * Deliver a device interrupt to a core, recording it in the
     * /proc/interrupts mirror.
     */
    void deliverIrq(int core_index, Irq irq);

    /** Create a thread owned by the kernel. */
    Thread *createThread(const std::string &name, Priority prio,
                         ExecutionModel *model,
                         int affinity = kAffinityAny);

    /** Start a created thread. */
    void startThread(Thread *thread) { scheduler_->start(thread); }

    /** Fold in-progress residency intervals into core stats. */
    void finalizeStats();

    int numCores() const { return static_cast<int>(cores_.size()); }
    CpuCore &core(int i) { return *cores_[static_cast<std::size_t>(i)]; }
    std::vector<CpuCore *> corePointers();

    Scheduler &scheduler() { return *scheduler_; }
    SystemServices &services() { return *services_; }
    WorkQueue &workQueue() { return *work_queue_; }
    QosGovernor *qosGovernor() { return qos_governor_.get(); }
    /** Per-PASID address spaces (PASID 0 = the primary GPU). */
    AddressSpaceDirectory &addressSpaces() { return spaces_; }

    /** Convenience: the page table of @p pasid (default primary). */
    PageTable &gpuPageTable(Pasid pasid = 0)
    {
        return spaces_.table(pasid);
    }

    FrameAllocator &frames() { return frames_; }
    ProcStats &procInterrupts() { return proc_stats_; }

    /** Every kernel-owned thread (kthreads + app threads; audit). */
    const std::vector<std::unique_ptr<Thread>> &threads() const
    {
        return threads_;
    }

    /** Every attached SSR driver, in attach order (audit). */
    const std::vector<std::unique_ptr<SsrDriver>> &drivers() const
    {
        return drivers_;
    }

    /** Aggregate SSR CPU time across all cores. */
    Tick totalSsrTicks() const;

    /// @name Snapshot support.
    /// @{
    /** Serialize the whole OS: kernel bookkeeping, threads, memory
     *  management, scheduler, services, queues, drivers, then every
     *  core (each in its own section). */
    void snapSave(snap::Writer &w) const;
    /**
     * Mirror of snapSave against a same-config kernel.
     * @param rebuild fills device-side callbacks of restored service
     *        requests from their origin tags (System provides it).
     */
    void snapRestore(snap::Reader &r, const RequestRebuild &rebuild);
    /** Rebuild the callback of any kernel./sched./drv./core. event. */
    EventQueue::Callback rebuildEvent(const snap::Tag &tag);
    /** Re-materialize an in-flight Irq from its producer token. */
    Irq rebuildIrq(const snap::Token &token);
    /** Lookup a kernel-owned thread by id (nullptr if unknown). */
    Thread *threadById(int id) const;
    /// @}

  private:
    void startHousekeepingTimer(int core_index, Tick first_fire);
    void fireHousekeeping(int core_index);
    Irq makeHousekeepingIrq();

    // HISS_STATE_EXEMPT(params_): construction config, covered by the
    // snapshot config fingerprint
    KernelParams params_;
    std::vector<std::unique_ptr<CpuCore>> cores_;
    ProcStats proc_stats_;
    std::unique_ptr<Scheduler> scheduler_;

    FrameAllocator frames_;
    AddressSpaceDirectory spaces_;
    std::unique_ptr<SystemServices> services_;
    std::unique_ptr<WorkQueue> work_queue_;
    std::unique_ptr<QosGovernor> qos_governor_;

    std::vector<std::unique_ptr<WorkerModel>> worker_models_;
    std::vector<std::unique_ptr<SsrDriver>> drivers_;
    std::vector<std::unique_ptr<Thread>> threads_;
    int next_thread_id_ = 1;
};

} // namespace hiss

#endif // HISS_OS_KERNEL_H_
