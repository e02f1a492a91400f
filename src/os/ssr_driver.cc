#include "os/ssr_driver.h"

#include <algorithm>

#include "fault/fault_injector.h"
#include "os/kernel.h"
#include "sim/check_hooks.h"
#include "sim/logging.h"
#include "snap/access.h"

namespace hiss {

SsrDriver::SsrDriver(SimContext &ctx, const std::string &name,
                     const SsrDriverParams &params, RequestSource &source,
                     Kernel &kernel, int irq_affinity)
    : SimObject(ctx, name),
      params_(params),
      source_(source),
      kernel_(kernel),
      irq_affinity_(irq_affinity),
      bh_model_(*this)
{
    stats().addFormula(name + ".interrupts", "SSR interrupts handled",
                       [this] {
                           return static_cast<double>(interrupts_);
                       });
    stats().addFormula(name + ".requests", "SSR requests drained",
                       [this] {
                           return static_cast<double>(requests_drained_);
                       });
    // Registered only under fault injection so fault-free stat dumps
    // stay byte-identical to builds without the fault subsystem.
    if (faultInjector() != nullptr) {
        stats().addFormula(name + ".aborted",
                           "requests aborted by the recovery watchdog",
                           [this] {
                               return static_cast<double>(
                                   requests_aborted_);
                           });
        stats().addFormula(name + ".suppressed",
                           "zombie completions suppressed",
                           [this] {
                               return static_cast<double>(
                                   completions_suppressed_);
                           });
    }
}

bool
SsrDriver::trackingEnabled() const
{
    const FaultInjector *faults = faultInjector();
    return faults != nullptr && faults->plan().request_timeout > 0;
}

void
SsrDriver::armWatchdog(std::uint64_t id)
{
    Tracked &tracked = tracked_[id];
    tracked.watchdog =
        scheduleAfter(faultInjector()->plan().request_timeout,
                      [this, id] { onWatchdog(id); },
                      EventPriority::Default,
                      {{"drv.wd", snap_index_, id}, {}});
}

void
SsrDriver::onWatchdog(std::uint64_t id)
{
    const auto it = tracked_.find(id);
    if (it == tracked_.end() || it->second.aborted)
        return;
    if (!it->second.work_queued) {
        // Still owned by the bottom half; aborting now would corrupt
        // its pending queue. Re-arm — the bottom half always makes
        // progress, so this terminates once the request is queued.
        armWatchdog(id);
        return;
    }
    it->second.aborted = true;
    ++requests_aborted_;
    if (CheckHooks *checks = checkHooks())
        checks->onSsrAborted(&source_, id);
    // The device abort handler may re-enter the driver (e.g. the GPU
    // retries into a fresh request); don't touch map iterators after.
    auto on_abort = std::move(it->second.on_abort);
    if (on_abort)
        on_abort();
}

bool
SsrDriver::completeRequest(std::uint64_t id)
{
    bool aborted = false;
    const auto it = tracked_.find(id);
    if (it != tracked_.end()) {
        if (it->second.watchdog != kInvalidEventId)
            events().cancel(it->second.watchdog);
        aborted = it->second.aborted;
        tracked_.erase(it);
    }
    if (CheckHooks *checks = checkHooks())
        checks->onSsrCompleted(&source_, id);
    if (aborted) {
        // Zombie completion: the watchdog already aborted this
        // request and told the device. The kworker's CPU time was
        // genuinely spent, but the device callback is suppressed.
        ++completions_suppressed_;
        return false;
    }
    return true;
}

void
SsrDriver::queueToWorker(SsrRequest request, CpuCore &core)
{
    if (FaultInjector *faults = faultInjector()) {
        if (faults->takeUnledgeredDrop()) {
            // Deliberate conservation *bug* (tests): the request and
            // its completion evaporate with no ledger entry, so an
            // armed invariant sweep must report a leak.
            return;
        }
    }
    request.queued_at = core.now();
    CheckHooks *checks = checkHooks();
    const auto tracked_it = tracked_.find(request.id);
    if (tracked_it != tracked_.end())
        tracked_it->second.work_queued = true;
    if (checks != nullptr)
        checks->onSsrWorkQueued(&source_, request.id);
    if (checks != nullptr || tracked_it != tracked_.end()) {
        // Route the completion back through completeRequest, so the
        // checker sees the request leave the pipeline and the
        // recovery layer can suppress zombie completions.
        request.driver_wrapped = true;
        request.driver_index = snap_index_;
    }
    kernel_.workQueue().push(
        kernel_.services().makeWorkItem(std::move(request)), &core);
}

Irq
SsrDriver::makeInterrupt()
{
    Irq irq;
    irq.label = name();
    irq.token = {"irq.drv", snap_index_};
    irq.ssr_related = true;
    irq.footprint_accesses = params_.top_footprint_accesses;
    irq.footprint_branches = params_.top_footprint_branches;
    irq.on_start = [this](CpuCore &core) -> Tick {
        ++interrupts_;
        std::vector<SsrRequest> drained = source_.drain();
        requests_drained_ += drained.size();
        const auto n = static_cast<Tick>(drained.size());
        CheckHooks *checks = checkHooks();
        const bool tracking = trackingEnabled();
        for (SsrRequest &request : drained) {
            request.drained_at = core.now();
            if (checks)
                checks->onSsrDrained(&source_, request.id);
            if (tracking) {
                Tracked &entry = tracked_[request.id];
                entry.on_abort = std::move(request.on_abort);
                entry.origin = request.origin;
                armWatchdog(request.id);
            }
            pending_.push_back(std::move(request));
        }
        Tick duration =
            params_.top_half_base + params_.top_half_per_entry * n;
        if (params_.monolithic_bottom_half) {
            // Pre-processing executes in hardirq context (Section V-C).
            duration += params_.bottom_half_base
                + params_.bottom_half_per_entry * n;
        }
        return duration;
    };
    irq.on_complete = [this](CpuCore &core) {
        irq_inflight_ = false;
        source_.ack();
        if (pending_.empty())
            return;
        if (params_.monolithic_bottom_half) {
            while (!pending_.empty()) {
                SsrRequest request = std::move(pending_.front());
                pending_.pop_front();
                queueToWorker(std::move(request), core);
            }
        } else {
            if (bh_thread_ == nullptr)
                panic("%s: no bottom-half thread configured",
                      name().c_str());
            kernel_.scheduler().wake(bh_thread_, &core);
        }
    };
    return irq;
}

void
SsrDriver::raiseIrq(Tick latency)
{
    irq_inflight_ = true;
    ++irqs_raised_;
    Tick delay = latency;
    if (FaultInjector *faults = faultInjector()) {
        const IrqFate fate = faults->irqFate();
        if (fate.dropped) {
            // The delivery vanishes. The watchdog notices the
            // never-acked interrupt and frees the line; the device's
            // queued requests stay put, so nothing is lost, only
            // delayed.
            scheduleAfter(faults->plan().irq_watchdog,
                          [this] { onIrqWatchdog(); },
                          EventPriority::Device,
                          {{"drv.irqwd", snap_index_}, {}});
            return;
        }
        delay += fate.extra_delay;
        if (fate.duplicated) {
            // A second, spurious delivery lands one latency after the
            // real one, on a core picked then; it drains whatever is
            // queued (usually nothing) and its stray ack is harmless.
            scheduleAfter(delay + latency, [this] {
                kernel_.deliverIrq(pickIrqTarget(), makeInterrupt());
            }, EventPriority::Device, {{"drv.irqdup", snap_index_}, {}});
        }
    }
    const int target = pickIrqTarget();
    scheduleAfter(delay, [this, target] {
        kernel_.deliverIrq(target, makeInterrupt());
    }, EventPriority::Device,
    {{"drv.irq", snap_index_, static_cast<std::uint64_t>(target)}, {}});
}

int
SsrDriver::pickIrqTarget()
{
    if (irq_affinity_ != kAffinityAny)
        return irq_affinity_;
    const int n = kernel_.numCores();
    if (source_.spreadSkipsSleepingCores()) {
        // Lowest-priority-style arbitration: round robin, but skip
        // cores in deep idle when an awake core exists (hardware
        // avoids waking CC6 cores for interrupt delivery when it
        // can). The spread stays even across the awake set.
        for (int tried = 0; tried < n; ++tried) {
            const int candidate = rr_next_core_;
            rr_next_core_ = (rr_next_core_ + 1) % n;
            if (!kernel_.core(candidate).asleepOrWaking())
                return candidate;
        }
    }
    const int target = rr_next_core_;
    rr_next_core_ = (rr_next_core_ + 1) % n;
    return target;
}

void
SsrDriver::onIrqWatchdog()
{
    // A duplicate's stray ack may have freed the line already.
    if (!irq_inflight_)
        return;
    irq_inflight_ = false;
    ++irq_recoveries_;
    source_.ack();
}

namespace {

/** The abort callback of tracked request @p id: it was moved off the
 *  request at drain time, so rebuild the request and take it back. */
std::function<void()>
snapRestoreAbort(std::uint64_t id, const snap::Tag &origin,
                 const RequestRebuild &rebuild)
{
    SsrRequest origin_request;
    origin_request.id = id;
    origin_request.origin = origin;
    rebuild(origin_request);
    return std::move(origin_request.on_abort);
}

} // namespace

void
SsrDriver::snapIo(snap::Io &io, const RequestRebuild &rebuild)
{
    snap::Access::io(io, rng());
    io.seq(pending_, [&io, &rebuild](SsrRequest &request) {
        snapIoRequest(io, request, rebuild);
    });
    io.keyed(tracked_, [&io, &rebuild](std::uint64_t &id, Tracked &entry) {
        io.u64(id);
        io.u64(entry.watchdog);
        io.b(entry.work_queued);
        io.b(entry.aborted);
        bool has_abort = static_cast<bool>(entry.on_abort);
        io.b(has_abort);
        io.tag(entry.origin);
        if (has_abort && !io.saving())
            entry.on_abort = snapRestoreAbort(id, entry.origin, rebuild);
    });
    io.b(bh_model_.fresh_wake_);
    io.u64(bh_model_.remaining_);
    io.b(bh_model_.in_entry_);
    io.u64(interrupts_);
    io.u64(requests_drained_);
    io.u64(requests_aborted_);
    io.u64(completions_suppressed_);
    io.b(irq_inflight_);
    io.asI64(rr_next_core_);
    snap::checkIndex(rr_next_core_, kernel_.numCores(),
                     "interrupt round-robin core");
    io.u64(irqs_raised_);
    io.u64(irq_recoveries_);
}

EventQueue::Callback
SsrDriver::rebuildEvent(const snap::Tag &tag)
{
    const snap::Token &t = tag.self;
    if (t.is("drv.wd")) {
        const std::uint64_t id = t.b;
        return [this, id] { onWatchdog(id); };
    }
    if (t.is("drv.irq")) {
        snap::checkIndex(t.b, kernel_.numCores(), "interrupt target core");
        const int target = static_cast<int>(t.b);
        return [this, target] {
            kernel_.deliverIrq(target, makeInterrupt());
        };
    }
    if (t.is("drv.irqdup")) {
        return [this] {
            kernel_.deliverIrq(pickIrqTarget(), makeInterrupt());
        };
    }
    if (t.is("drv.irqwd"))
        return [this] { onIrqWatchdog(); };
    throw snap::SnapshotError("unknown driver event tag");
}

BurstRequest
SsrDriver::BottomHalfModel::nextBurst(CpuCore &core)
{
    (void)core;
    BurstRequest br;
    if (!in_entry_) {
        if (driver_.pending_.empty()) {
            fresh_wake_ = true;
            br.kind = BurstRequest::Kind::Block;
            return br;
        }
        remaining_ = driver_.params_.bottom_half_per_entry;
        if (fresh_wake_) {
            remaining_ += driver_.params_.bottom_half_base;
            fresh_wake_ = false;
        }
        in_entry_ = true;
    }
    br.kind = BurstRequest::Kind::Run;
    br.duration = remaining_;
    br.kernel_mode = true;
    br.ssr_work = true;
    br.mem_accesses = driver_.params_.bh_footprint_accesses;
    br.branches = driver_.params_.bh_footprint_branches;
    return br;
}

void
SsrDriver::BottomHalfModel::onBurstDone(CpuCore &core, Tick ran,
                                        std::uint64_t instructions_done,
                                        bool completed)
{
    (void)instructions_done;
    if (!in_entry_)
        panic("BottomHalfModel: completion without an entry");
    if (!completed) {
        remaining_ = ran >= remaining_ ? 1 : remaining_ - ran;
        return;
    }
    in_entry_ = false;
    if (driver_.pending_.empty())
        panic("BottomHalfModel: pending queue emptied mid-entry");
    SsrRequest request = std::move(driver_.pending_.front());
    driver_.pending_.pop_front();
    driver_.queueToWorker(std::move(request), core);
}

} // namespace hiss
