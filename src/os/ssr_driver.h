/**
 * @file
 * The SSR device driver (paper Fig. 1 / Section II-C).
 *
 * Models the amd_iommu_v2-style split interrupt handling chain:
 *
 *   top half (hardirq)  — drains the device request queue, schedules
 *                         the bottom half (IPI if remote), acks (3a/3b);
 *   bottom half kthread — pre-processes each request and queues the
 *                         bulk work to a WorkQueue (4a/4b);
 *   kworker             — performs the service (5) and notifies the
 *                         device (6).
 *
 * The "monolithic bottom half" mitigation (paper Section V-C) folds
 * the bottom-half pre-processing into the top half, eliminating the
 * wakeup IPI and scheduling delay at the cost of longer hardirq time.
 */

#ifndef HISS_OS_SSR_DRIVER_H_
#define HISS_OS_SSR_DRIVER_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "os/scheduler.h"
#include "os/services.h"
#include "os/thread.h"
#include "os/workqueue.h"
#include "sim/sim_object.h"

namespace hiss {

/** A device-side queue of service requests drained by the driver. */
class RequestSource
{
  public:
    virtual ~RequestSource() = default;

    /** Remove and return all pending requests (top-half queue read). */
    virtual std::vector<SsrRequest> drain() = 0;

    /** Top-half acknowledgement (step 3b): re-enables device irqs. */
    virtual void ack() = 0;
};

/** Driver timing/configuration parameters. */
struct SsrDriverParams
{
    /** Fold bottom-half pre-processing into the top half. */
    bool monolithic_bottom_half = false;

    Tick top_half_base = 600;
    Tick top_half_per_entry = 120;
    Tick bottom_half_base = 500;
    Tick bottom_half_per_entry = 420;

    std::uint32_t top_footprint_accesses = 64;
    std::uint32_t top_footprint_branches = 500;
    std::uint32_t bh_footprint_accesses = 96;
    std::uint32_t bh_footprint_branches = 700;
};

/** The split-handler SSR driver. */
class SsrDriver : public SimObject
{
  public:
    SsrDriver(SimContext &ctx, const std::string &name,
              const SsrDriverParams &params, RequestSource &source,
              SystemServices &services, WorkQueue &work_queue,
              Scheduler &scheduler);

    /**
     * Set the bottom-half kthread (created by the kernel with
     * bottomHalfModel() as its execution model). Unused in
     * monolithic mode. The kthread is scheduler-placed (sticky on
     * its previous core), so interrupts landing on other cores wake
     * it with an IPI — the 3a arrow in the paper's Fig. 1.
     */
    void setBottomHalfThread(Thread *thread) { bh_thread_ = thread; }

    /** The execution model to give the bottom-half kthread. */
    ExecutionModel &bottomHalfModel() { return bh_model_; }

    /**
     * Build the hardirq the device posts to a core when it raises
     * its service interrupt.
     */
    Irq makeInterrupt();

    const SsrDriverParams &params() const { return params_; }

    std::uint64_t interrupts() const { return interrupts_; }
    std::uint64_t requestsDrained() const { return requests_drained_; }

    /** Requests drained but not yet pre-processed (tests). */
    std::size_t pendingBottomHalf() const { return pending_.size(); }

    /** The device queue this driver drains (invariant-layer key). */
    const RequestSource *source() const { return &source_; }

    /** Requests aborted by the recovery watchdog (fault injection). */
    std::uint64_t requestsAborted() const { return requests_aborted_; }
    /** Completions of already-aborted requests that were suppressed. */
    std::uint64_t
    completionsSuppressed() const
    {
        return completions_suppressed_;
    }

    /**
     * A request this driver tracks (SsrRequest::driver_wrapped) has
     * been serviced: cancel its watchdog, retire its tracking entry
     * and tell armed checks. Kernel::completeWork calls this.
     * @return false for a zombie the watchdog already aborted, whose
     *         device callback must be suppressed.
     */
    bool completeRequest(std::uint64_t id);

    /// @name Snapshot support.
    /// @{
    /** Position in Kernel::drivers(), used in event/irq tags. */
    void setSnapIndex(std::uint64_t index) { snap_index_ = index; }
    std::uint64_t snapIndex() const { return snap_index_; }

    void snapSave(snap::Writer &w) const;
    void snapRestore(snap::Reader &r, const RequestRebuild &rebuild);
    /** Rebuild the callback of a "drv.wd" watchdog event. */
    EventQueue::Callback rebuildEvent(const snap::Tag &tag);
    /// @}

  private:
    /** Bottom-half kthread model: pre-process pending requests. */
    class BottomHalfModel : public ExecutionModel
    {
      public:
        explicit BottomHalfModel(SsrDriver &driver) : driver_(driver) {}
        BurstRequest nextBurst(CpuCore &core) override;
        void onBurstDone(CpuCore &core, Tick ran,
                         std::uint64_t instructions_done,
                         bool completed) override;

      private:
        friend class SsrDriver; // Snapshot access to progress state.

        SsrDriver &driver_;
        bool fresh_wake_ = true;
        Tick remaining_ = 0;
        bool in_entry_ = false;
    };

    /**
     * Recovery state for one drained request (created only when a
     * fault injector with a request_timeout is armed). The watchdog
     * aborts requests stuck past the bottom half; completeRequest
     * suppresses the device callback of aborted (zombie) requests
     * and retires their tracking entry.
     */
    struct Tracked
    {
        EventId watchdog = kInvalidEventId;
        bool work_queued = false;
        bool aborted = false;
        std::function<void()> on_abort;
        /** Originating request's tag, to rebuild on_abort on restore. */
        snap::Tag origin;
    };

    void queueToWorker(SsrRequest request, CpuCore &core);
    bool trackingEnabled() const;
    void armWatchdog(std::uint64_t id);
    void onWatchdog(std::uint64_t id);

    // HISS_STATE_EXEMPT(params_): construction config, covered by the
    // snapshot config fingerprint
    SsrDriverParams params_;
    RequestSource &source_;
    SystemServices &services_;
    WorkQueue &work_queue_;
    Scheduler &scheduler_;
    // HISS_STATE_EXEMPT(bh_thread_): wiring; the bottom-half thread is
    // owned and serialized by the kernel thread table, re-attached via
    // setBottomHalfThread at construction
    Thread *bh_thread_ = nullptr;
    BottomHalfModel bh_model_;

    std::deque<SsrRequest> pending_;
    std::unordered_map<std::uint64_t, Tracked> tracked_;
    std::uint64_t interrupts_ = 0;
    std::uint64_t requests_drained_ = 0;
    std::uint64_t requests_aborted_ = 0;
    std::uint64_t completions_suppressed_ = 0;
    // HISS_STATE_EXEMPT(snap_index_): identity; assigned once when the
    // kernel attaches the driver, reassigned identically on rebuild
    std::uint64_t snap_index_ = 0;
};

} // namespace hiss

#endif // HISS_OS_SSR_DRIVER_H_
