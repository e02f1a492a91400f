#include "iommu/iommu.h"

#include <algorithm>
#include <memory>

#include "fault/fault_injector.h"
#include "sim/check_hooks.h"
#include "sim/logging.h"

namespace hiss {

Iommu::Iommu(SimContext &ctx, Kernel &kernel, const IommuParams &params)
    : SimObject(ctx, "iommu"),
      kernel_(kernel),
      spaces_(kernel.addressSpaces()),
      params_(params),
      fault_latency_(ctx.stats.addDistribution(
          "iommu.fault_latency",
          "PPR issue to resolution latency (ticks)"))
{
    if (params.steering == MsiSteering::SingleCore
        && (params.steer_core < 0
            || params.steer_core >= kernel.numCores()))
        fatal("Iommu: steer_core %d out of range", params.steer_core);
    if (params.coalescing && params.coalesce_window == 0)
        fatal("Iommu: coalescing enabled with zero window");
    if (params.iotlb_entries == 0)
        fatal("Iommu: iotlb_entries must be positive");
    // Probe table: power of two >= 2x capacity, so the load factor
    // stays <= 1/2 and linear-probe chains stay short.
    std::uint32_t slots = 8;
    while (slots < params.iotlb_entries * 2)
        slots *= 2;
    iotlb_slots_.assign(slots, 0);
    iotlb_ring_.assign(params.iotlb_entries, 0);
    iotlb_mask_ = slots - 1;
    stats().addFormula("iommu.pprs", "peripheral page requests issued",
                       [this] {
                           return static_cast<double>(pprs_issued_);
                       });
    stats().addFormula("iommu.msis", "MSIs raised",
                       [this] {
                           return static_cast<double>(msisRaised());
                       });
    stats().addFormula("iommu.iotlb_hits", "IOTLB hits",
                       [this] {
                           return static_cast<double>(iotlb_hits_);
                       });
    stats().addFormula("iommu.iotlb_misses", "IOTLB misses",
                       [this] {
                           return static_cast<double>(iotlb_misses_);
                       });
    // Registered only under fault injection so fault-free stat dumps
    // stay byte-identical to builds without the fault subsystem.
    if (faultInjector() != nullptr) {
        stats().addFormula("iommu.pprs_rejected",
                           "PPRs rejected by queue overflow (INVALID)",
                           [this] {
                               return static_cast<double>(pprs_rejected_);
                           });
        stats().addFormula("iommu.faults_aborted",
                           "PPRs aborted by the driver watchdog",
                           [this] {
                               return static_cast<double>(faults_aborted_);
                           });
        stats().addFormula("iommu.msi_recoveries",
                           "dropped MSIs re-raised by the watchdog",
                           [this] {
                               return static_cast<double>(msiRecoveries());
                           });
    }
}

std::uint32_t
Iommu::iotlbSlot(Vpn vpn) const
{
    // splitmix64 finalizer: cheap, and VPNs are near-sequential per
    // launch generation, which raw masking would cluster badly.
    std::uint64_t x = vpn + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::uint32_t>(x) & iotlb_mask_;
}

bool
Iommu::iotlbContains(Vpn vpn) const
{
    const Vpn code = vpn + 1;
    for (std::uint32_t i = iotlbSlot(vpn);; i = (i + 1) & iotlb_mask_) {
        if (iotlb_slots_[i] == code)
            return true;
        if (iotlb_slots_[i] == 0)
            return false;
    }
}

void
Iommu::eraseIotlb(Vpn vpn)
{
    const Vpn code = vpn + 1;
    std::uint32_t hole = iotlbSlot(vpn);
    while (iotlb_slots_[hole] != code) {
        if (iotlb_slots_[hole] == 0)
            return; // Not resident (defensive; ring says it is).
        hole = (hole + 1) & iotlb_mask_;
    }
    // Backward-shift deletion: keep every survivor reachable from
    // its ideal slot without tombstones. An entry at j may fill the
    // hole iff the hole lies on its probe path, i.e. within
    // [ideal(j), j] cyclically.
    for (std::uint32_t j = (hole + 1) & iotlb_mask_;
         iotlb_slots_[j] != 0; j = (j + 1) & iotlb_mask_) {
        const std::uint32_t ideal = iotlbSlot(iotlb_slots_[j] - 1);
        if (((hole - ideal) & iotlb_mask_) <= ((j - ideal) & iotlb_mask_)) {
            iotlb_slots_[hole] = iotlb_slots_[j];
            hole = j;
        }
    }
    iotlb_slots_[hole] = 0;
}

void
Iommu::insertIotlb(Vpn vpn)
{
    // One probe pass does both the presence check and the slot
    // search (the old list + map shape re-hashed the key for each).
    const Vpn code = vpn + 1;
    std::uint32_t i = iotlbSlot(vpn);
    while (iotlb_slots_[i] != 0) {
        if (iotlb_slots_[i] == code)
            return; // Already resident (duplicate in-flight faults).
        i = (i + 1) & iotlb_mask_;
    }
    // Install before evicting: the backward shift below may reuse
    // slot i, but never breaks the chain of an already-stored entry.
    iotlb_slots_[i] = code;
    if (iotlb_size_ == params_.iotlb_entries) {
        // Full: FIFO eviction — drop the oldest entry and reuse its
        // ring slot for the newcomer.
        eraseIotlb(iotlb_ring_[iotlb_head_]);
        iotlb_ring_[iotlb_head_] = vpn;
        iotlb_head_ = iotlb_head_ + 1 == params_.iotlb_entries
            ? 0
            : iotlb_head_ + 1;
        return;
    }
    std::uint32_t tail = iotlb_head_ + iotlb_size_;
    if (tail >= params_.iotlb_entries)
        tail -= params_.iotlb_entries;
    iotlb_ring_[tail] = vpn;
    ++iotlb_size_;
}

void
Iommu::finishWalk(Vpn vpn, TranslateCallback on_complete,
                  bool allow_fault, Pasid pasid, snap::Token cb_token)
{
    PageTable &table = spaces_.table(pasid);
    Pfn pfn;
    if (table.translate(vpn, pfn)) {
        insertIotlb(vpn);
        on_complete(TranslateResult::Ok);
        return;
    }
    if (!allow_fault) {
        // Pinned-memory baseline: the page was (conceptually)
        // mapped before launch; install it with no host work.
        table.map(vpn, kernel_.frames().allocate());
        insertIotlb(vpn);
        on_complete(TranslateResult::Ok);
        return;
    }
    queuePpr(pasid, vpn, std::move(on_complete), cb_token);
}

void
Iommu::translate(Vpn vpn, TranslateCallback on_complete, bool allow_fault,
                 Pasid pasid, snap::Token cb_token)
{
    // Note: the IOTLB is tagged by VPN only; accelerators use
    // disjoint VPN namespaces, so entries cannot alias in practice.
    if (iotlbContains(vpn)) {
        ++iotlb_hits_;
        scheduleAfter(params_.iotlb_hit_latency,
                      [cb = std::move(on_complete)] {
                          cb(TranslateResult::Ok);
                      },
                      EventPriority::Device,
                      {{"iommu.hit", vpn}, cb_token});
        return;
    }
    ++iotlb_misses_;
    scheduleAfter(params_.walk_latency,
                  [this, vpn, cb = std::move(on_complete), allow_fault,
                   pasid, cb_token]() mutable {
        finishWalk(vpn, std::move(cb), allow_fault, pasid, cb_token);
    }, EventPriority::Device,
    {{"iommu.walk", vpn, pasid, allow_fault ? 1u : 0u}, cb_token});
}

void
Iommu::translateBatch(std::vector<TranslateRequest> requests,
                      bool allow_fault, Pasid pasid)
{
    if (requests.empty())
        return;
    // Classify the whole chunk against the IOTLB up front. All the
    // probes happen now, before any insert can land (inserts run at
    // +walk_latency or later), so the outcomes — and the hit/miss
    // stats — are byte-identical to issuing scalar translate() calls
    // in order at this tick.
    const std::uint64_t id = next_batch_id_++;
    Batch &batch = batches_[id];
    batch.allow_fault = allow_fault;
    batch.pasid = pasid;
    batch.ops.reserve(requests.size());
    bool any_hit = false;
    bool any_walk = false;
    for (TranslateRequest &req : requests) {
        const bool hit = iotlbContains(req.vpn);
        if (hit) {
            ++iotlb_hits_;
            any_hit = true;
        } else {
            ++iotlb_misses_;
            any_walk = true;
        }
        batch.ops.push_back(
            {hit, req.vpn, req.token, std::move(req.on_complete)});
    }
    // One fused event per latency class replays the per-request
    // bodies in issue order — under the event queue's same-(tick,
    // priority) FIFO guarantee this is observably identical to the
    // per-request events scalar translate() would have scheduled.
    // The pending ops live in the batches_ ledger keyed by id, so
    // each event carries only (id, select) — snapshottable POD —
    // instead of a closure owning the op vector.
    // select: 0 = hits only, 1 = walks only, 2 = both in issue order
    // (the equal-latency case, where scalar events would interleave).
    if (params_.iotlb_hit_latency == params_.walk_latency) {
        batch.events_left = 1;
        scheduleAfter(params_.walk_latency,
                      [this, id] { runBatchOps(id, 2); },
                      EventPriority::Device, {{"iommu.batch", id, 2}, {}});
        return;
    }
    batch.events_left = (any_hit ? 1 : 0) + (any_walk ? 1 : 0);
    if (any_hit)
        scheduleAfter(params_.iotlb_hit_latency,
                      [this, id] { runBatchOps(id, 0); },
                      EventPriority::Device, {{"iommu.batch", id, 0}, {}});
    if (any_walk)
        scheduleAfter(params_.walk_latency,
                      [this, id] { runBatchOps(id, 1); },
                      EventPriority::Device, {{"iommu.batch", id, 1}, {}});
}

void
Iommu::runBatchOps(std::uint64_t id, int select)
{
    Batch &batch = batches_.at(id);
    for (BatchOp &op : batch.ops) {
        if (select == 0 && !op.hit)
            continue;
        if (select == 1 && op.hit)
            continue;
        if (op.hit)
            op.on_complete(TranslateResult::Ok);
        else
            finishWalk(op.vpn, std::move(op.on_complete),
                       batch.allow_fault, batch.pasid, op.token);
    }
    if (--batch.events_left == 0)
        batches_.erase(id);
}

void
Iommu::attachPprCallbacks(SsrRequest &request,
                          TranslateCallback on_complete)
{
    const Vpn vpn = request.vpn;
    const Tick issued = request.issued_at;
    if (faultInjector() != nullptr) {
        // Recovery-capable shape: completion and the driver-watchdog
        // abort share the callback through one owner.
        auto shared_cb = std::make_shared<TranslateCallback>(
            std::move(on_complete));
        request.on_service_complete =
            [this, vpn, issued, shared_cb](CpuCore &) {
                ++faults_resolved_;
                fault_latency_.sample(
                    static_cast<double>(now() - issued));
                insertIotlb(vpn);
                (*shared_cb)(TranslateResult::Ok);
            };
        request.on_abort = [this, shared_cb] {
            ++faults_aborted_;
            (*shared_cb)(TranslateResult::Aborted);
        };
    } else {
        request.on_service_complete =
            [this, vpn, issued, cb = std::move(on_complete)](CpuCore &) {
                ++faults_resolved_;
                fault_latency_.sample(
                    static_cast<double>(now() - issued));
                insertIotlb(vpn);
                cb(TranslateResult::Ok);
            };
    }
}

void
Iommu::rebuildRequestCallbacks(SsrRequest &request,
                               const CallbackResolver &resolver)
{
    attachPprCallbacks(request, resolver(request.origin.arg));
}

void
Iommu::queuePpr(Pasid pasid, Vpn vpn, TranslateCallback on_complete,
                snap::Token cb_token)
{
    FaultInjector *faults = faultInjector();
    if (faults != nullptr && faults->pprOverflow(ppr_queue_.size())) {
        // amd_iommu_v2 PPR-log overflow: the request never enters
        // the queue; the hardware auto-responds INVALID and the
        // device must retry (or give up).
        ++pprs_rejected_;
        on_complete(TranslateResult::Rejected);
        return;
    }
    ++pprs_issued_;
    SsrRequest request;
    request.id = next_request_id_++;
    request.kind = ServiceKind::PageFault;
    request.pasid = pasid;
    request.vpn = vpn;
    request.issued_at = now();
    request.origin = {{"iommu.ppr", vpn, pasid}, cb_token};
    attachPprCallbacks(request, std::move(on_complete));
    // Track the PPR inter-arrival EMA for adaptive coalescing.
    const Tick gap = std::min<Tick>(now() - last_ppr_at_, msToTicks(1));
    last_ppr_at_ = now();
    ppr_gap_ema_ = (ppr_gap_ema_ * 7 + gap * 3) / 10;

    if (CheckHooks *checks = checkHooks())
        checks->onSsrIssued(static_cast<const RequestSource *>(this),
                            request.id);
    ppr_queue_.push_back(std::move(request));
    considerRaiseMsi();
}

Tick
Iommu::effectiveWindow() const
{
    if (!params_.adaptive_coalescing)
        return params_.coalesce_window;
    // vIC-style: batch hard when requests arrive densely; deliver
    // promptly when the stream is sparse (waiting would only add
    // latency, nothing would batch).
    if (ppr_gap_ema_ >= params_.coalesce_window)
        return 500;
    return std::min(std::max<Tick>(ppr_gap_ema_ * 3, 500),
                    params_.coalesce_window);
}

void
Iommu::considerRaiseMsi()
{
    if (ppr_queue_.empty() || driver_->irqInFlight())
        return;
    if (!params_.coalescing) {
        driver_->raiseIrq(params_.msi_latency);
        return;
    }
    if (ppr_queue_.size() >= params_.coalesce_burst) {
        if (coalesce_event_ != kInvalidEventId)
            events().cancel(coalesce_event_);
        coalesce_event_ = kInvalidEventId;
        driver_->raiseIrq(params_.msi_latency);
        return;
    }
    if (coalesce_event_ == kInvalidEventId
        || !events().pending(coalesce_event_)) {
        coalesce_event_ = scheduleAfter(effectiveWindow(),
                                        [this] { closeCoalesceWindow(); },
                                        EventPriority::Device,
                                        {{"iommu.coalesce"}, {}});
    }
}

void
Iommu::closeCoalesceWindow()
{
    coalesce_event_ = kInvalidEventId;
    if (!ppr_queue_.empty() && !driver_->irqInFlight())
        driver_->raiseIrq(params_.msi_latency);
}

std::vector<SsrRequest>
Iommu::drain()
{
    std::vector<SsrRequest> out;
    out.reserve(ppr_queue_.size());
    while (!ppr_queue_.empty()) {
        out.push_back(std::move(ppr_queue_.front()));
        ppr_queue_.pop_front();
    }
    return out;
}

void
Iommu::ack()
{
    // PPRs that arrived while the interrupt was in flight need a
    // fresh MSI.
    considerRaiseMsi();
}

EventQueue::Callback
Iommu::rebuildEvent(const snap::Tag &tag, const CallbackResolver &resolver)
{
    const snap::Token &t = tag.self;
    if (t.is("iommu.hit")) {
        return [cb = resolver(tag.arg)] { cb(TranslateResult::Ok); };
    }
    if (t.is("iommu.walk")) {
        const Vpn vpn = t.a;
        const auto pasid = static_cast<Pasid>(t.b);
        const bool allow_fault = t.c != 0;
        const snap::Token cb_token = tag.arg;
        return [this, vpn, pasid, allow_fault, cb_token,
                cb = resolver(tag.arg)]() mutable {
            finishWalk(vpn, std::move(cb), allow_fault, pasid, cb_token);
        };
    }
    if (t.is("iommu.batch")) {
        const std::uint64_t id = t.a;
        if (batches_.count(id) == 0)
            throw snap::SnapshotError(
                "snapshot corrupt: batch event names unknown batch "
                + std::to_string(id));
        const int select = static_cast<int>(t.b);
        return [this, id, select] { runBatchOps(id, select); };
    }
    if (t.is("iommu.coalesce"))
        return [this] { closeCoalesceWindow(); };
    throw snap::SnapshotError(
        std::string("unknown iommu event tag '")
        + (t.kind != nullptr ? t.kind : "") + "'");
}

void
Iommu::snapIo(snap::Io &io, const RequestRebuild &rebuild,
              const CallbackResolver &resolver)
{
    io.section("iommu");
    // The probe table layout depends on insertion order, so the
    // IOTLB arrays are walked verbatim rather than re-inserted.
    io.expect(iotlb_slots_.size(), "IOTLB probe-table size mismatch");
    for (Vpn &v : iotlb_slots_)
        io.u64(v);
    io.expect(iotlb_ring_.size(), "IOTLB capacity mismatch");
    for (Vpn &v : iotlb_ring_)
        io.u64(v);
    io.u32(iotlb_head_);
    snap::checkIndex(iotlb_head_, iotlb_ring_.size(), "IOTLB head");
    io.u32(iotlb_size_);
    snap::checkIndex(iotlb_size_, iotlb_ring_.size() + 1,
                     "IOTLB occupancy");
    io.seq(ppr_queue_, [&io, &rebuild](SsrRequest &request) {
        snapIoRequest(io, request, rebuild);
    });
    io.u64(last_ppr_at_);
    io.u64(ppr_gap_ema_);
    io.u64(coalesce_event_);
    io.u64(next_request_id_);
    io.keyed(batches_, [&io, &resolver](std::uint64_t &id, Batch &batch) {
        io.u64(id);
        io.as32(batch.events_left);
        io.b(batch.allow_fault);
        io.u32(batch.pasid);
        io.seq(batch.ops, [&io, &resolver](BatchOp &op) {
            io.b(op.hit);
            io.u64(op.vpn);
            io.token(op.token);
            if (!io.saving())
                op.on_complete = resolver(op.token);
        });
    });
    io.u64(next_batch_id_);
    io.u64(pprs_issued_);
    io.u64(iotlb_hits_);
    io.u64(iotlb_misses_);
    io.u64(faults_resolved_);
    io.u64(pprs_rejected_);
    io.u64(faults_aborted_);
}

} // namespace hiss
