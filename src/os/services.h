/**
 * @file
 * System service implementations (paper Table I).
 *
 * Converts a device service request into the deferred kernel work
 * that actually performs it: a soft page fault allocates a frame and
 * maps it into the requesting process's page table; a signal wakes
 * the target; memory allocation, file reads, and page migration are
 * progressively heavier (the paper's Low / Moderate / High
 * complexity tiers).
 */

#ifndef HISS_OS_SERVICES_H_
#define HISS_OS_SERVICES_H_

#include <functional>
#include <string>

#include "mem/address_space_dir.h"
#include "mem/frame_allocator.h"
#include "mem/page_table.h"
#include "sim/sim_object.h"

namespace hiss {

class CpuCore;

/** The kinds of system services an accelerator can request. */
enum class ServiceKind {
    Signal,        ///< Notify another process (low complexity).
    PageFault,     ///< Demand-page a GPU access (moderate-high).
    MemAlloc,      ///< Allocate/free memory from the GPU (moderate).
    FileRead,      ///< File system access from the GPU (high).
    PageMigration, ///< GPU-initiated NUMA page migration (high).
};

/** Printable name of a ServiceKind. */
const char *serviceKindName(ServiceKind kind);

/** One service request as it travels down the handling chain. */
struct SsrRequest
{
    std::uint64_t id = 0;
    ServiceKind kind = ServiceKind::PageFault;
    /** Requesting process address space (IOMMU PPRs carry PASIDs). */
    Pasid pasid = 0;
    /** Faulting virtual page (PageFault / PageMigration). */
    Vpn vpn = 0;
    /** When the device raised the request (latency accounting). */
    Tick issued_at = 0;
    /** When the top half drained it from the device queue (step 3). */
    Tick drained_at = 0;
    /** When the bottom half queued the bulk work (step 4b). */
    Tick queued_at = 0;
    /** Device-side completion callback (step 6 in Fig. 1). */
    // HISS_STATE_EXEMPT(on_service_complete, save restore): callback;
    // travels as the origin tag and is rebuilt by RequestRebuild
    std::function<void(CpuCore &)> on_service_complete;
    /**
     * Device-side abort callback: runs instead of
     * on_service_complete when the driver watchdog gives up on the
     * request (fault injection). May be empty.
     */
    // HISS_STATE_EXEMPT(on_abort, save restore): callback; travels as
    // the origin tag and is rebuilt by RequestRebuild
    std::function<void()> on_abort;
    /**
     * Snapshot identity of the device-side callbacks: which producer
     * created this request and with what arguments. Restore rebuilds
     * on_service_complete/on_abort from it, so any producer whose
     * requests can be live across a snapshot must set it.
     */
    snap::Tag origin;
    /** Set by SsrDriver when it tracks the request (watchdog or armed
     *  checks): Kernel::completeWork then routes the completion
     *  through drivers()[driver_index] before the device callback. */
    bool driver_wrapped = false;
    std::uint64_t driver_index = 0;
};

/**
 * One deferred unit of kernel work: the request it services plus the
 * stamps the work queue and its kworker add on the way.
 */
struct WorkItem
{
    SsrRequest request;
    /** CPU time needed to service the item. */
    Tick duration = 0;
    /** Set by the queue on push; used for latency stats. */
    Tick enqueued_at = 0;
    /** Set when a kworker picks the item up (stage latency). */
    Tick service_start = 0;
};

/**
 * Kernel footprint of servicing one request, driven through the
 * servicing core's L1D/BP: distinct lines touched and dynamic
 * branches executed.
 */
struct ServiceFootprint
{
    std::uint32_t accesses;
    std::uint32_t branches;
};

/** The footprint of servicing a request of @p kind. */
ServiceFootprint serviceFootprint(ServiceKind kind);

/** Fills a restored request's device callbacks from request.origin. */
using RequestRebuild = std::function<void(SsrRequest &)>;

/** Walk a request's plain fields and origin tag (callbacks travel
 *  as the tag: save refuses an untagged request, restore ends with
 *  @p rebuild). */
void snapIoRequest(snap::Io &io, SsrRequest &request,
                   const RequestRebuild &rebuild);

/** Walk one item: its request, then its three stamps. */
void snapIoWorkItem(snap::Io &io, WorkItem &item,
                    const RequestRebuild &rebuild);

/**
 * Per-stage latency decomposition of the SSR pipeline — a
 * quantified version of the paper's Fig. 2 timeline. All values are
 * distributions over serviced requests, in ticks.
 */
struct SsrStageStats
{
    /** Device issue -> top-half drain (MSI delivery, wake, hardirq
     *  queueing: the 2->3 arrows). */
    Distribution *issue_to_drain = nullptr;
    /** Top-half drain -> work queued (bottom-half wake + scheduling
     *  + pre-processing: the 3a->4b arrows). */
    Distribution *drain_to_queue = nullptr;
    /** Work queued -> kworker starts servicing (step 5 scheduling
     *  delay). */
    Distribution *queue_to_service = nullptr;
    /** Kworker service start -> completion (step 5 execution,
     *  including preemption by other work). */
    Distribution *service_to_done = nullptr;
    /** Device issue -> completion (whole pipeline). */
    Distribution *total = nullptr;
};

/** Mean service CPU costs per kind, in ticks (ns). */
struct ServiceCostParams
{
    Tick signal = 900;
    Tick page_fault = 2300;
    Tick mem_alloc = 1900;
    Tick file_read = 9500;
    Tick page_migration = 14000;
    /** Uniform cost jitter: actual = mean * (1 +/- jitter). */
    double jitter = 0.15;
};

/** Builds and completes the WorkItems that perform system services. */
class SystemServices : public SimObject
{
  public:
    /**
     * @param spaces the per-PASID address-space directory (faults
     *        map into the requesting process's table).
     * @param frames physical frame pool for demand paging.
     */
    SystemServices(SimContext &ctx, AddressSpaceDirectory &spaces,
                   FrameAllocator &frames,
                   const ServiceCostParams &costs = {});

    /** Create the deferred work that services @p request (draws its
     *  jittered duration). */
    WorkItem makeWorkItem(SsrRequest request);

    /**
     * Perform a serviced item's side effects and account it: the
     * per-kind and total counters, the request latency and the stage
     * samples. Kernel::completeWork calls this before it notifies
     * the driver and the device.
     */
    void complete(const WorkItem &item);

    /// @name Snapshot support (counters + rng; stats live in the
    /// registry section).
    /// @{
    void snapIo(snap::Io &io);
    /// @}

    /** Mean cost of a service kind (pre-jitter), for benches/tests. */
    Tick meanCost(ServiceKind kind) const;

    std::uint64_t serviced(ServiceKind kind) const;
    std::uint64_t totalServiced() const { return total_serviced_; }

    /** Per-stage latency decomposition (Fig. 2 quantified). */
    const SsrStageStats &stageStats() const { return stages_; }

  private:
    Tick sampleCost(ServiceKind kind);
    void applyEffects(const SsrRequest &request);

    AddressSpaceDirectory &spaces_;
    FrameAllocator &frames_;
    // HISS_STATE_EXEMPT(costs_): construction config (service-cost
    // table), covered by the snapshot config fingerprint
    ServiceCostParams costs_;
    std::uint64_t serviced_by_kind_[5] = {0, 0, 0, 0, 0};
    std::uint64_t total_serviced_ = 0;
    Distribution &latency_;
    // HISS_STATE_EXEMPT(stages_): aliases distributions owned by the
    // stat registry, which serializes them
    SsrStageStats stages_;
};

} // namespace hiss

#endif // HISS_OS_SERVICES_H_
