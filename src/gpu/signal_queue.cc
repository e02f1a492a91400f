#include "gpu/signal_queue.h"

#include "fault/fault_injector.h"
#include "sim/check_hooks.h"

namespace hiss {

SignalQueue::SignalQueue(SimContext &ctx)
    : SimObject(ctx, "gpu_signal_queue")
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

void
SignalQueue::considerRaise()
{
    if (!queue_.empty() && !driver_->irqInFlight())
        driver_->raiseIrq(kMsiLatency);
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
    throw snap::SnapshotError(
        std::string("unknown signal-queue event tag '")
        + (t.kind != nullptr ? t.kind : "") + "'");
}

void
SignalQueue::snapIo(snap::Io &io, const RequestRebuild &rebuild)
{
    io.section("sigq");
    io.seq(queue_, [&io, &rebuild](SsrRequest &request) {
        snapIoRequest(io, request, rebuild);
    });
    io.u64(next_id_);
    io.u64(signals_sent_);
    io.u64(signals_delivered_);
    io.u64(signals_resent_);
    io.u64(signals_aborted_);
}

} // namespace hiss
