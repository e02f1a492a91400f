#include "gpu/signal_queue.h"

#include "fault/fault_injector.h"
#include "sim/check_hooks.h"
#include "sim/logging.h"

namespace hiss {

SignalQueue::SignalQueue(SimContext &ctx, Kernel &kernel)
    : SimObject(ctx, "gpu_signal_queue"), kernel_(kernel)
{
    if (FaultInjector *faults = faultInjector())
        faults->registerSource(
            name(), static_cast<const RequestSource *>(this));
    stats().addFormula("gpu_signal_queue.sent", "signal SSRs sent",
                       [this] {
                           return static_cast<double>(signals_sent_);
                       });
    stats().addFormula("gpu_signal_queue.delivered",
                       "signal SSRs delivered",
                       [this] {
                           return static_cast<double>(signals_delivered_);
                       });
    // Registered only under fault injection so fault-free stat dumps
    // stay byte-identical to builds without the fault subsystem.
    if (faultInjector() != nullptr) {
        stats().addFormula("gpu_signal_queue.resent",
                           "signals re-sent after injected loss",
                           [this] {
                               return static_cast<double>(
                                   signals_resent_);
                           });
        stats().addFormula("gpu_signal_queue.aborted",
                           "signals aborted by the driver watchdog",
                           [this] {
                               return static_cast<double>(
                                   signals_aborted_);
                           });
    }
}

void
SignalQueue::sendSignal(std::function<void(CpuCore &)> on_delivered,
                        snap::Token cb_token)
{
    const bool had_cb = static_cast<bool>(on_delivered);
    FaultInjector *faults = faultInjector();
    if (faults != nullptr && faults->loseSignal()) {
        // The descriptor write is lost in the queue. The loss is
        // ledgered so conservation sweeps can tell it from a model
        // leak; the device notices the missing completion and
        // re-sends after signal_resend (0 = permanent loss).
        ++signals_sent_;
        const std::uint64_t id = next_id_++;
        const auto *source = static_cast<const RequestSource *>(this);
        faults->recordInjectedLoss(source, id);
        if (CheckHooks *checks = checkHooks()) {
            checks->onSsrIssued(source, id);
            checks->onSsrInjectedLoss(source, id);
        }
        if (faults->plan().signal_resend > 0) {
            scheduleAfter(faults->plan().signal_resend,
                          [this, cb = std::move(on_delivered),
                           cb_token]() mutable {
                              ++signals_resent_;
                              sendSignal(std::move(cb), cb_token);
                          },
                          EventPriority::Device,
                          {{"sig.resend", had_cb ? 1u : 0u}, cb_token});
        }
        return;
    }
    ++signals_sent_;
    SsrRequest request;
    request.id = next_id_++;
    request.kind = ServiceKind::Signal;
    request.issued_at = now();
    request.origin = {{"sig.req", had_cb ? 1u : 0u}, cb_token};
    request.on_service_complete =
        [this, cb = std::move(on_delivered)](CpuCore &core) {
            ++signals_delivered_;
            if (cb)
                cb(core);
        };
    if (faults != nullptr)
        request.on_abort = [this] { ++signals_aborted_; };
    if (CheckHooks *checks = checkHooks())
        checks->onSsrIssued(static_cast<const RequestSource *>(this),
                            request.id);
    queue_.push_back(std::move(request));
    considerRaise();
}

int
SignalQueue::pickTarget()
{
    const int target = rr_next_core_;
    rr_next_core_ = (rr_next_core_ + 1) % kernel_.numCores();
    return target;
}

void
SignalQueue::considerRaise()
{
    if (queue_.empty() || irq_inflight_)
        return;
    if (driver_ == nullptr)
        panic("SignalQueue: no driver attached");
    irq_inflight_ = true;
    Tick latency = kMsiLatency;
    if (FaultInjector *faults = faultInjector()) {
        const IrqFate fate = faults->irqFate();
        if (fate.dropped) {
            // Same watchdog recovery as the IOMMU MSI path: the
            // queued signals stay put until the re-raise.
            scheduleAfter(faults->plan().irq_watchdog, [this] {
                if (irq_inflight_) {
                    irq_inflight_ = false;
                    ++irq_recoveries_;
                    considerRaise();
                }
            }, EventPriority::Device, {{"sig.irqwd"}, {}});
            return;
        }
        latency += fate.extra_delay;
        if (fate.duplicated) {
            scheduleAfter(latency + kMsiLatency, [this] {
                kernel_.deliverIrq(pickTarget(),
                                   driver_->makeInterrupt());
            }, EventPriority::Device, {{"sig.irqdup"}, {}});
        }
    }
    const int target = pickTarget();
    scheduleAfter(latency, [this, target] {
        kernel_.deliverIrq(target, driver_->makeInterrupt());
    }, EventPriority::Device,
    {{"sig.irq", static_cast<std::uint64_t>(target)}, {}});
}

std::vector<SsrRequest>
SignalQueue::drain()
{
    std::vector<SsrRequest> out;
    out.reserve(queue_.size());
    while (!queue_.empty()) {
        out.push_back(std::move(queue_.front()));
        queue_.pop_front();
    }
    return out;
}

void
SignalQueue::ack()
{
    irq_inflight_ = false;
    considerRaise();
}

void
SignalQueue::rebuildRequestCallbacks(SsrRequest &request)
{
    if (request.origin.self.a != 0)
        throw snap::SnapshotError(
            "in-flight signal " + std::to_string(request.id)
            + " carries a live delivery callback; signals with "
              "callbacks cannot cross a snapshot boundary");
    request.on_service_complete = [this](CpuCore &) {
        ++signals_delivered_;
    };
    if (faultInjector() != nullptr)
        request.on_abort = [this] { ++signals_aborted_; };
}

EventQueue::Callback
SignalQueue::rebuildEvent(const snap::Tag &tag)
{
    const snap::Token &t = tag.self;
    if (t.is("sig.resend")) {
        if (t.a != 0)
            throw snap::SnapshotError(
                "pending signal re-send carries a live delivery "
                "callback; signals with callbacks cannot cross a "
                "snapshot boundary");
        return [this] {
            ++signals_resent_;
            sendSignal(nullptr);
        };
    }
    if (t.is("sig.irqwd")) {
        return [this] {
            if (irq_inflight_) {
                irq_inflight_ = false;
                ++irq_recoveries_;
                considerRaise();
            }
        };
    }
    if (t.is("sig.irqdup")) {
        return [this] {
            kernel_.deliverIrq(pickTarget(), driver_->makeInterrupt());
        };
    }
    if (t.is("sig.irq")) {
        const int target = static_cast<int>(t.a);
        return [this, target] {
            kernel_.deliverIrq(target, driver_->makeInterrupt());
        };
    }
    throw snap::SnapshotError(
        std::string("unknown signal-queue event tag '")
        + (t.kind != nullptr ? t.kind : "") + "'");
}

void
SignalQueue::snapSave(snap::Writer &w) const
{
    w.section("sigq");
    w.u64(queue_.size());
    for (const SsrRequest &request : queue_)
        snapSaveRequest(w, request);
    w.b(irq_inflight_);
    w.u64(static_cast<std::uint64_t>(rr_next_core_));
    w.u64(next_id_);
    w.u64(signals_sent_);
    w.u64(signals_delivered_);
    w.u64(signals_resent_);
    w.u64(signals_aborted_);
    w.u64(irq_recoveries_);
}

void
SignalQueue::snapRestore(snap::Reader &r)
{
    r.section("sigq");
    queue_.clear();
    const std::uint64_t queued = r.u64();
    for (std::uint64_t i = 0; i < queued; ++i) {
        queue_.push_back(snapRestoreRequest(
            r, [this](SsrRequest &request) {
                rebuildRequestCallbacks(request);
            }));
    }
    irq_inflight_ = r.b();
    rr_next_core_ = static_cast<int>(r.u64());
    next_id_ = r.u64();
    signals_sent_ = r.u64();
    signals_delivered_ = r.u64();
    signals_resent_ = r.u64();
    signals_aborted_ = r.u64();
    irq_recoveries_ = r.u64();
}

} // namespace hiss
