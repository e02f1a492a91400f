#include "os/services.h"

#include <utility>

#include "sim/logging.h"
#include "snap/access.h"

namespace hiss {

const char *
serviceKindName(ServiceKind kind)
{
    switch (kind) {
      case ServiceKind::Signal: return "signal";
      case ServiceKind::PageFault: return "page_fault";
      case ServiceKind::MemAlloc: return "mem_alloc";
      case ServiceKind::FileRead: return "file_read";
      case ServiceKind::PageMigration: return "page_migration";
    }
    return "unknown";
}

SystemServices::SystemServices(SimContext &ctx,
                               AddressSpaceDirectory &spaces,
                               FrameAllocator &frames,
                               const ServiceCostParams &costs)
    : SimObject(ctx, "services"),
      spaces_(spaces),
      frames_(frames),
      costs_(costs),
      latency_(ctx.stats.addDistribution(
          "services.request_latency",
          "device-issue to service-complete latency (ticks)"))
{
    if (costs.jitter < 0.0 || costs.jitter >= 1.0)
        fatal("ServiceCostParams: jitter must be in [0, 1)");
    stats().addFormula("services.total", "system services performed",
                       [this] {
                           return static_cast<double>(total_serviced_);
                       });
    stages_.issue_to_drain = &ctx.stats.addDistribution(
        "services.stage.issue_to_drain",
        "device issue -> top-half drain (ticks)");
    stages_.drain_to_queue = &ctx.stats.addDistribution(
        "services.stage.drain_to_queue",
        "top-half drain -> work queued (ticks)");
    stages_.queue_to_service = &ctx.stats.addDistribution(
        "services.stage.queue_to_service",
        "work queued -> kworker pickup (ticks)");
    stages_.service_to_done = &ctx.stats.addDistribution(
        "services.stage.service_to_done",
        "kworker pickup -> completion (ticks)");
    stages_.total = &ctx.stats.addDistribution(
        "services.stage.total", "device issue -> completion (ticks)");
}

Tick
SystemServices::meanCost(ServiceKind kind) const
{
    switch (kind) {
      case ServiceKind::Signal: return costs_.signal;
      case ServiceKind::PageFault: return costs_.page_fault;
      case ServiceKind::MemAlloc: return costs_.mem_alloc;
      case ServiceKind::FileRead: return costs_.file_read;
      case ServiceKind::PageMigration: return costs_.page_migration;
    }
    panic("unknown service kind");
}

Tick
SystemServices::sampleCost(ServiceKind kind)
{
    const auto mean = static_cast<double>(meanCost(kind));
    const double factor =
        rng().uniformReal(1.0 - costs_.jitter, 1.0 + costs_.jitter);
    const auto cost = static_cast<Tick>(mean * factor);
    return cost == 0 ? 1 : cost;
}

void
SystemServices::applyEffects(const SsrRequest &request)
{
    switch (request.kind) {
      case ServiceKind::PageFault: {
        // Soft fault (as in the paper: no disk access): allocate a
        // frame and install the translation if still missing.
        PageTable &table = spaces_.table(request.pasid);
        if (!table.isMapped(request.vpn))
            table.map(request.vpn, frames_.allocate());
        break;
      }
      case ServiceKind::PageMigration: {
        // Remap the page to a fresh frame (migration target):
        // allocate the destination before releasing the source, as a
        // real migration would.
        PageTable &table = spaces_.table(request.pasid);
        const Pfn fresh = frames_.allocate();
        if (table.isMapped(request.vpn))
            frames_.free(table.unmap(request.vpn));
        table.map(request.vpn, fresh);
        break;
      }
      case ServiceKind::Signal:
      case ServiceKind::MemAlloc:
      case ServiceKind::FileRead:
        // Cost-only services in this model: the work is the CPU time
        // already charged; completion flows back to the device.
        break;
    }
}

WorkItem
SystemServices::makeWorkItem(SsrRequest request)
{
    WorkItem item;
    item.duration = sampleCost(request.kind);
    item.request = std::move(request);
    return item;
}

void
SystemServices::complete(const WorkItem &item)
{
    const SsrRequest &request = item.request;
    applyEffects(request);
    ++serviced_by_kind_[static_cast<int>(request.kind)];
    ++total_serviced_;
    const Tick done = now();
    if (done >= request.issued_at)
        latency_.sample(static_cast<double>(done - request.issued_at));
    // Stage decomposition (only when every stamp was recorded).
    const Tick start = item.service_start;
    if (request.issued_at > 0 && request.drained_at >= request.issued_at
        && request.queued_at >= request.drained_at
        && start >= request.queued_at && done >= start) {
        stages_.issue_to_drain->sample(static_cast<double>(
            request.drained_at - request.issued_at));
        stages_.drain_to_queue->sample(static_cast<double>(
            request.queued_at - request.drained_at));
        stages_.queue_to_service->sample(
            static_cast<double>(start - request.queued_at));
        stages_.service_to_done->sample(
            static_cast<double>(done - start));
        stages_.total->sample(
            static_cast<double>(done - request.issued_at));
    }
}

ServiceFootprint
serviceFootprint(ServiceKind kind)
{
    switch (kind) {
      case ServiceKind::Signal: return {48, 400};
      case ServiceKind::PageFault:
      case ServiceKind::MemAlloc:
        // Page zeroing / allocator metadata: larger footprint.
        return {160, 900};
      case ServiceKind::FileRead:
      case ServiceKind::PageMigration: return {320, 2000};
    }
    panic("unknown service kind");
}

std::uint64_t
SystemServices::serviced(ServiceKind kind) const
{
    return serviced_by_kind_[static_cast<int>(kind)];
}

void
snapSaveRequest(snap::Writer &w, const SsrRequest &request)
{
    if (request.origin.empty())
        throw snap::SnapshotError(
            "in-flight service request " + std::to_string(request.id)
            + " has no snapshot origin tag");
    w.u64(request.id);
    w.u32(static_cast<std::uint32_t>(request.kind));
    w.u32(request.pasid);
    w.u64(request.vpn);
    w.u64(request.issued_at);
    w.u64(request.drained_at);
    w.u64(request.queued_at);
    w.tag(request.origin);
    w.b(request.driver_wrapped);
    w.u64(request.driver_index);
}

SsrRequest
snapRestoreRequest(snap::Reader &r, const RequestRebuild &rebuild)
{
    SsrRequest request;
    request.id = r.u64();
    request.kind = static_cast<ServiceKind>(r.u32());
    request.pasid = r.u32();
    request.vpn = r.u64();
    request.issued_at = r.u64();
    request.drained_at = r.u64();
    request.queued_at = r.u64();
    request.origin = r.tag();
    request.driver_wrapped = r.b();
    request.driver_index = r.u64();
    rebuild(request);
    return request;
}

void
snapSaveWorkItem(snap::Writer &w, const WorkItem &item)
{
    snapSaveRequest(w, item.request);
    w.u64(item.duration);
    w.u64(item.service_start);
    w.u64(item.enqueued_at);
}

WorkItem
snapRestoreWorkItem(snap::Reader &r, const RequestRebuild &rebuild)
{
    WorkItem item;
    item.request = snapRestoreRequest(r, rebuild);
    item.duration = r.u64();
    item.service_start = r.u64();
    item.enqueued_at = r.u64();
    return item;
}

void
SystemServices::snapSave(snap::Writer &w) const
{
    snap::Access::save(w, rng());
    for (const std::uint64_t n : serviced_by_kind_)
        w.u64(n);
    w.u64(total_serviced_);
}

void
SystemServices::snapRestore(snap::Reader &r)
{
    snap::Access::restore(r, rng());
    for (std::uint64_t &n : serviced_by_kind_)
        n = r.u64();
    total_serviced_ = r.u64();
}

} // namespace hiss
