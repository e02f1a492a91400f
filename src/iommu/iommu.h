/**
 * @file
 * IOMMU device model (paper Section II-C).
 *
 * Translates GPU virtual addresses: IOTLB hit, page-table walk, or —
 * for unmapped pages — a peripheral page request (PPR) queued for the
 * host driver, followed by an MSI that the driver's interrupt line
 * delivers to a CPU core. Configures the two hardware-side
 * mitigations from the paper:
 *
 *  - MSI steering (Section V-A): deliver all SSR interrupts to one
 *    core instead of spreading them round-robin across all cores
 *    (the system pins the driver's interrupt line there);
 *  - interrupt coalescing (Section V-B): wait up to 13 us (the
 *    analog of PCIe register D0F2xF4_x93) accumulating PPRs before
 *    raising the interrupt.
 */

#ifndef HISS_IOMMU_IOMMU_H_
#define HISS_IOMMU_IOMMU_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "mem/address_space_dir.h"
#include "mem/page_table.h"
#include "os/kernel.h"
#include "os/ssr_driver.h"
#include "sim/sim_object.h"
#include "snap/snap.h"

namespace hiss {

/** How SSR MSIs are distributed over cores. */
enum class MsiSteering {
    SpreadRoundRobin, ///< Default: even spread (paper Section IV-C).
    SingleCore,       ///< Mitigation: all to one core (Section V-A).
};

/** IOMMU configuration. */
struct IommuParams
{
    MsiSteering steering = MsiSteering::SpreadRoundRobin;
    /** Target core when steering == SingleCore. */
    int steer_core = 0;

    /** Enable interrupt coalescing. */
    bool coalescing = false;
    /** Maximum coalescing wait (paper: 13 us). */
    Tick coalesce_window = usToTicks(13);
    /** Raise early once this many PPRs accumulate. */
    std::uint32_t coalesce_burst = 32;

    /**
     * Adaptive coalescing (extension, after Ahmad et al.'s vIC,
     * which the paper cites): instead of always waiting the full
     * window, wait ~4x the recent PPR inter-arrival time, capped by
     * coalesce_window. Sparse streams get near-zero added latency;
     * dense streams still batch.
     */
    bool adaptive_coalescing = false;

    /** IOTLB lookup latency. */
    Tick iotlb_hit_latency = 20;
    /** Page-table walk latency on IOTLB miss (hardware walker). */
    Tick walk_latency = 250;
    /** IOTLB capacity in entries (FIFO replacement). */
    std::uint32_t iotlb_entries = 64;

    /** MSI delivery latency to the target core. */
    Tick msi_latency = 150;
};

/** How one translate() request ultimately resolved. */
enum class TranslateResult {
    Ok,       ///< Translation installed; the access may proceed.
    Rejected, ///< PPR queue overflow auto-responded INVALID (retryable).
    Aborted,  ///< Driver watchdog gave up on the request (terminal).
};

/** The IOMMU: translation front-end and PPR/MSI back-end. */
class Iommu : public SimObject, public RequestSource
{
  public:
    /** Invoked when a translation finally resolves (or fails). */
    using TranslateCallback = std::function<void(TranslateResult)>;

    /**
     * Rebuilds a device-side translate callback from the producer
     * token it was issued with (snapshot restore; System supplies
     * one that routes "gpu.xlate" tokens to the owning Gpu).
     */
    using CallbackResolver =
        std::function<TranslateCallback(const snap::Token &)>;

    Iommu(SimContext &ctx, Kernel &kernel, const IommuParams &params);

    const IommuParams &params() const { return params_; }

    /**
     * Translate @p vpn in address space @p pasid on behalf of the
     * device.
     *
     * Resolution paths: IOTLB hit; walk hit (mapped page); or — when
     * @p allow_fault — a PPR serviced by the host (the full SSR
     * chain), after which the callback fires. With @p allow_fault
     * false an unmapped page is treated as pinned-at-first-use: it
     * is mapped instantly with no host involvement (models the
     * traditional pinned-memory baseline, i.e. "no SSRs").
     *
     * @p cb_token names the producer of @p on_complete so a pending
     * translation can be re-materialized from a snapshot; callers
     * that never snapshot may omit it (the save then refuses with a
     * clear error while such a translation is in flight).
     */
    void translate(Vpn vpn, TranslateCallback on_complete,
                   bool allow_fault = true, Pasid pasid = 0,
                   snap::Token cb_token = {});

    /** One translation of a batch handed to translateBatch(). */
    struct TranslateRequest
    {
        Vpn vpn = 0;
        TranslateCallback on_complete;
        /** Producer token of on_complete (snapshot identity). */
        snap::Token token;
    };

    /**
     * Translate a chunk of VPNs in one pass — observably identical
     * to calling translate() on each element in order at the same
     * tick, but classifies the whole chunk against the IOTLB up
     * front and fuses the per-request completion events into one
     * event per latency class. Sound because translate() never
     * mutates the IOTLB synchronously (inserts land at +walk_latency
     * or later), so the probe outcome of request k cannot depend on
     * requests 0..k-1 of the same tick. Used by the GPU wavefront
     * fault-issue path at launch.
     */
    void translateBatch(std::vector<TranslateRequest> requests,
                        bool allow_fault = true, Pasid pasid = 0);

    /// @name RequestSource (driver-facing) interface.
    /// @{
    std::vector<SsrRequest> drain() override;
    void ack() override;
    bool spreadSkipsSleepingCores() const override { return true; }
    /// @}

    /** Driver whose interrupt this IOMMU raises (set after
     *  Kernel::attachSsrSource). */
    void setDriver(SsrDriver *driver) { driver_ = driver; }

    std::uint64_t pprsIssued() const { return pprs_issued_; }
    /** MSIs raised through the driver, dropped ones included. */
    std::uint64_t msisRaised() const { return driver_->irqsRaised(); }
    std::uint64_t iotlbHits() const { return iotlb_hits_; }
    std::uint64_t iotlbMisses() const { return iotlb_misses_; }
    std::uint64_t faultsResolved() const { return faults_resolved_; }
    /** PPR issue-to-resolution latency, ticks (iommu.fault_latency). */
    const Distribution &faultLatency() const { return fault_latency_; }

    /** PPRs rejected by injected queue overflow (INVALID response). */
    std::uint64_t pprsRejected() const { return pprs_rejected_; }
    /** PPRs whose request the driver watchdog aborted. */
    std::uint64_t faultsAborted() const { return faults_aborted_; }
    /** Dropped MSIs the driver's watchdog recovered. */
    std::uint64_t msiRecoveries() const { return driver_->irqRecoveries(); }

    /** Current depth of the unsent-PPR queue (tests). */
    std::size_t pprQueueDepth() const { return ppr_queue_.size(); }

    /// @name Snapshot support.
    /// @{
    /** Walk the IOTLB (verbatim layout), unsent PPR queue,
     *  coalescing state, in-flight batch ledger, and counters;
     *  @p rebuild and @p resolver rebuild callbacks on restore. */
    void snapIo(snap::Io &io, const RequestRebuild &rebuild,
                const CallbackResolver &resolver);
    /** Re-attach this IOMMU's service callbacks to a restored PPR. */
    void rebuildRequestCallbacks(SsrRequest &request,
                                 const CallbackResolver &resolver);
    /** Rebuild the callback of any iommu.* event tag. */
    EventQueue::Callback rebuildEvent(const snap::Tag &tag,
                                      const CallbackResolver &resolver);
    /// @}

  private:
    /** One classified element of an in-flight translate batch. */
    struct BatchOp
    {
        bool hit = false;
        Vpn vpn = 0;
        snap::Token token;
        TranslateCallback on_complete;
    };

    /** A translateBatch() call whose fused events are still pending. */
    struct Batch
    {
        std::vector<BatchOp> ops;
        int events_left = 0;
        bool allow_fault = true;
        Pasid pasid = 0;
    };

    std::uint32_t iotlbSlot(Vpn vpn) const;
    void insertIotlb(Vpn vpn);
    void eraseIotlb(Vpn vpn);
    bool iotlbContains(Vpn vpn) const;
    void finishWalk(Vpn vpn, TranslateCallback on_complete,
                    bool allow_fault, Pasid pasid, snap::Token cb_token);
    void queuePpr(Pasid pasid, Vpn vpn, TranslateCallback on_complete,
                  snap::Token cb_token);
    void attachPprCallbacks(SsrRequest &request,
                            TranslateCallback on_complete);
    void runBatchOps(std::uint64_t id, int select);
    Tick effectiveWindow() const;
    void considerRaiseMsi();
    void closeCoalesceWindow();

    Kernel &kernel_;
    AddressSpaceDirectory &spaces_;
    // HISS_STATE_EXEMPT(params_): construction config, covered by the
    // snapshot config fingerprint
    IommuParams params_;
    // HISS_STATE_EXEMPT(driver_): wiring; borrowed driver pointer
    // re-attached via setDriver during system construction
    SsrDriver *driver_ = nullptr;

    // IOTLB: FIFO-replacement set of recently used translations,
    // stored flat. iotlb_slots_ is a power-of-two open-addressed
    // probe table (linear probing, backward-shift deletion, load
    // factor <= 1/2) holding vpn + 1 codes with 0 marking an empty
    // slot; iotlb_ring_ holds the resident VPNs in insertion order
    // with iotlb_head_ as the next-victim cursor, so FIFO eviction
    // is one array read instead of a list pop.
    std::vector<Vpn> iotlb_slots_;
    std::vector<Vpn> iotlb_ring_;
    // HISS_STATE_EXEMPT(iotlb_mask_): derived geometry (slot count - 1),
    // recomputed from params at construction
    std::uint32_t iotlb_mask_ = 0;
    std::uint32_t iotlb_head_ = 0;
    std::uint32_t iotlb_size_ = 0;

    std::deque<SsrRequest> ppr_queue_;
    Tick last_ppr_at_ = 0;
    Tick ppr_gap_ema_ = usToTicks(20);
    EventId coalesce_event_ = kInvalidEventId;
    std::uint64_t next_request_id_ = 1;

    /** In-flight fused batches, keyed by id so the pending events
     *  carry only POD state (snapshottable) instead of a closure
     *  owning the op vector. */
    std::map<std::uint64_t, Batch> batches_;
    std::uint64_t next_batch_id_ = 1;

    std::uint64_t pprs_issued_ = 0;
    std::uint64_t iotlb_hits_ = 0;
    std::uint64_t iotlb_misses_ = 0;
    std::uint64_t faults_resolved_ = 0;
    std::uint64_t pprs_rejected_ = 0;
    std::uint64_t faults_aborted_ = 0;
    Distribution &fault_latency_;
};

} // namespace hiss

#endif // HISS_IOMMU_IOMMU_H_
