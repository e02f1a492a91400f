#include "gpu/gpu.h"

#include "fault/fault_injector.h"
#include "os/qos_governor.h"
#include "sim/logging.h"
#include "snap/access.h"

namespace hiss {
namespace {

/** VPN-space stride between launch generations: each loop iteration
 *  uses fresh pages, modeling a re-run with new allocations. */
constexpr Vpn kGenerationStride = Vpn{1} << 26;
constexpr Vpn kGpuHeapBase = Vpn{1} << 20;
/** VPN-space stride between accelerator devices. */
constexpr Vpn kDeviceStride = Vpn{1} << 40;

std::string
gpuName(int device_id)
{
    return device_id == 0 ? "gpu" : "gpu" + std::to_string(device_id);
}

} // namespace

Gpu::Gpu(SimContext &ctx, Iommu &iommu, const GpuParams &params)
    : SimObject(ctx, gpuName(params.device_id)), iommu_(iommu),
      params_(params)
{
    if (params.max_outstanding == 0)
        fatal("GpuParams: max_outstanding must be positive");
    auto &reg = stats();
    const std::string p = name() + ".";
    reg.addFormula(p + "chunks", "work chunks completed",
                   [this] {
                       return static_cast<double>(chunks_completed_);
                   });
    reg.addFormula(p + "faults_issued", "demand page faults issued",
                   [this] { return static_cast<double>(faults_issued_); });
    reg.addFormula(p + "faults_resolved", "demand page faults resolved",
                   [this] {
                       return static_cast<double>(faults_resolved_);
                   });
    reg.addFormula(p + "stall_ticks", "wavefront-ticks stalled",
                   [this] { return static_cast<double>(stall_ticks_); });
    reg.addFormula(p + "kernels", "kernel launches completed",
                   [this] {
                       return static_cast<double>(kernels_completed_);
                   });
    // Registered only under fault injection so fault-free stat dumps
    // stay byte-identical to builds without the fault subsystem.
    if (faultInjector() != nullptr) {
        reg.addFormula(p + "aborted_wavefronts",
                       "wavefronts aborted after exhausted retries",
                       [this] {
                           return static_cast<double>(
                               aborted_wavefronts_);
                       });
        reg.addFormula(p + "translate_retries",
                       "translates re-issued after INVALID responses",
                       [this] {
                           return static_cast<double>(
                               translate_retries_);
                       });
    }
}

void
Gpu::launch(const GpuWorkloadParams &workload, bool demand_paging,
            bool loop, std::function<void()> on_kernel_complete)
{
    if (phase_ != Phase::Idle)
        fatal("Gpu: launch while a kernel is active");
    if (workload.wavefronts <= 0)
        fatal("GpuWorkloadParams: need at least one wavefront");
    if (workload.reuse_fraction < 0.0 || workload.reuse_fraction > 1.0)
        fatal("GpuWorkloadParams: reuse_fraction out of [0,1]");
    workload_ = workload;
    demand_paging_ = demand_paging;
    loop_ = loop;
    on_kernel_complete_ = std::move(on_kernel_complete);
    wavefronts_.clear();
    wavefronts_.resize(static_cast<std::size_t>(workload.wavefronts));
    for (int w = 0; w < workload.wavefronts; ++w)
        wavefronts_[static_cast<std::size_t>(w)].id = w;
    resetForLaunch();
}

void
Gpu::resetForLaunch()
{
    ++generation_;
    next_new_vpn_ = kGpuHeapBase
        + static_cast<Vpn>(params_.device_id) * kDeviceStride
        + generation_ * kGenerationStride;
    touched_pages_ = 0;
    preload_pages_left_ = workload_.unbounded_pages
        ? 0
        : static_cast<std::uint64_t>(
              static_cast<double>(workload_.pages)
              * workload_.preload_fraction);
    main_visits_left_ = workload_.main_visits;
    phase_ = preload_pages_left_ > 0 ? Phase::Preload : Phase::Main;
    launch_time_ = now();
    slot_waiters_.clear();
    outstanding_ = 0;
    for (Wavefront &wf : wavefronts_)
        wf.busy = true;
    // The launch-time fetch loop only draws assignments and does
    // slot bookkeeping; deferring its translates into one
    // translateBatch call preserves issue order and is observably
    // identical to per-wavefront translate() calls (see
    // Iommu::translateBatch).
    batching_ = params_.batch_translate;
    for (Wavefront &wf : wavefronts_)
        wavefrontFetch(wf.id);
    batching_ = false;
    if (!batch_reqs_.empty()) {
        iommu_.translateBatch(std::move(batch_reqs_), demand_paging_,
                              static_cast<Pasid>(params_.device_id));
        batch_reqs_.clear();
    }
}

Gpu::Assignment
Gpu::nextAssignment()
{
    Assignment a;
    if (phase_ == Phase::Preload) {
        a.vpn = next_new_vpn_++;
        ++touched_pages_;
        a.chunks = workload_.preload_chunks_per_page;
        a.fresh = true;
        a.valid = true;
        if (--preload_pages_left_ == 0)
            phase_ = Phase::Main;
        return a;
    }
    if (phase_ != Phase::Main || main_visits_left_ == 0)
        return a; // invalid: no work left
    --main_visits_left_;
    if (main_visits_left_ == 0)
        phase_ = Phase::Drain;

    bool fresh;
    if (workload_.unbounded_pages) {
        fresh = true;
    } else if (touched_pages_ == 0) {
        fresh = true;
    } else if (touched_pages_ >= workload_.pages) {
        fresh = false;
    } else {
        fresh = !rng().withProbability(workload_.reuse_fraction);
    }

    if (fresh) {
        a.vpn = next_new_vpn_++;
        ++touched_pages_;
    } else {
        const Vpn base = kGpuHeapBase
            + static_cast<Vpn>(params_.device_id) * kDeviceStride
            + generation_ * kGenerationStride;
        a.vpn = base + rng().uniformInt(0, touched_pages_ - 1);
    }
    a.chunks = workload_.chunks_per_visit;
    a.fresh = fresh;
    a.valid = true;
    return a;
}

void
Gpu::wavefrontFetch(int w)
{
    Wavefront &wf = wavefronts_[static_cast<std::size_t>(w)];
    wf.work = nextAssignment();
    if (!wf.work.valid) {
        wf.busy = false;
        maybeFinishKernel();
        return;
    }
    beginTranslate(w);
}

void
Gpu::beginTranslate(int w)
{
    Wavefront &wf = wavefronts_[static_cast<std::size_t>(w)];
    wf.stall_start = now();
    if (outstanding_ >= params_.max_outstanding) {
        // Hardware outstanding-request limit: the wavefront stalls
        // until a slot frees (the backpressure point).
        slot_waiters_.push_back(w);
        return;
    }
    ++outstanding_;
    issueTranslate(w);
}

void
Gpu::issueTranslate(int w)
{
    Wavefront &wf = wavefronts_[static_cast<std::size_t>(w)];
    const bool count_fault = wf.work.fresh && demand_paging_;
    // A retried assignment was already counted as issued.
    if (count_fault && wf.retries == 0)
        ++faults_issued_;
    Iommu::TranslateCallback cb =
        [this, w, count_fault](TranslateResult result) {
            onTranslateResult(w, result, count_fault);
        };
    const snap::Token token{"gpu.xlate",
                            static_cast<std::uint64_t>(params_.device_id),
                            static_cast<std::uint64_t>(w),
                            count_fault ? 1u : 0u};
    if (batching_) {
        batch_reqs_.push_back({wf.work.vpn, std::move(cb), token});
        return;
    }
    iommu_.translate(wf.work.vpn, std::move(cb), demand_paging_,
                     static_cast<Pasid>(params_.device_id), token);
}

Iommu::TranslateCallback
Gpu::rebuildTranslateCallback(const snap::Token &token)
{
    if (!token.is("gpu.xlate"))
        throw snap::SnapshotError(
            std::string("unknown gpu callback token '")
            + (token.kind != nullptr ? token.kind : "") + "'");
    snap::checkIndex(token.b, wavefronts_.size(), "translating wavefront");
    const int w = static_cast<int>(token.b);
    const bool count_fault = token.c != 0;
    return [this, w, count_fault](TranslateResult result) {
        onTranslateResult(w, result, count_fault);
    };
}

void
Gpu::onTranslateResult(int w, TranslateResult result, bool count_fault)
{
    Wavefront &wf = wavefronts_[static_cast<std::size_t>(w)];
    if (result == TranslateResult::Ok) {
        if (count_fault)
            ++faults_resolved_;
        wf.retries = 0;
        wf.backoff = 0;
        onTranslated(w);
        return;
    }
    // The translate failed: account the stall so far, free the slot
    // (waiters must not starve behind a backing-off wavefront).
    stall_ticks_ += now() - wf.stall_start;
    releaseSlot();
    FaultInjector *faults = faultInjector();
    if (result == TranslateResult::Rejected && faults != nullptr
        && wf.retries < faults->plan().max_retries) {
        const FaultPlan &plan = faults->plan();
        ++wf.retries;
        ++translate_retries_;
        const BackoffPolicy policy{plan.retry_backoff_initial,
                                   plan.retry_backoff_max};
        wf.backoff = policy.next(wf.backoff);
        scheduleAfter(wf.backoff, [this, w] { beginTranslate(w); },
                      EventPriority::Device,
                      {{"gpu.retry",
                        static_cast<std::uint64_t>(params_.device_id),
                        static_cast<std::uint64_t>(w)}, {}});
        return;
    }
    abortWavefront(w);
}

void
Gpu::abortWavefront(int w)
{
    Wavefront &wf = wavefronts_[static_cast<std::size_t>(w)];
    ++aborted_wavefronts_;
    wf.busy = false;
    wf.retries = 0;
    wf.backoff = 0;
    wf.work = Assignment{};
    maybeFinishKernel();
}

void
Gpu::releaseSlot()
{
    if (!slot_waiters_.empty()) {
        const int next = slot_waiters_.front();
        slot_waiters_.pop_front();
        issueTranslate(next); // Slot passes directly to the waiter.
    } else {
        --outstanding_;
    }
}

void
Gpu::onTranslated(int w)
{
    Wavefront &wf = wavefronts_[static_cast<std::size_t>(w)];
    stall_ticks_ += now() - wf.stall_start;
    releaseSlot();
    if (wf.work.fresh && demand_paging_ && workload_.fault_replay > 0) {
        // Faulted waves replay before resuming execution. Replay
        // time varies per wave, de-synchronizing the fault stream
        // (real wavefronts do not fault in lockstep).
        const auto replay = static_cast<Tick>(
            static_cast<double>(workload_.fault_replay)
            * rng().uniformReal(0.6, 1.4));
        scheduleAfter(replay, [this, w] { processChunks(w); },
                      EventPriority::Device,
                      {{"gpu.replay",
                        static_cast<std::uint64_t>(params_.device_id),
                        static_cast<std::uint64_t>(w)}, {}});
        return;
    }
    processChunks(w);
}

void
Gpu::processChunks(int w)
{
    Wavefront &wf = wavefronts_[static_cast<std::size_t>(w)];
    const auto duration = static_cast<Tick>(
        static_cast<double>(wf.work.chunks * workload_.chunk_duration)
        * rng().uniformReal(0.85, 1.15));
    const std::uint64_t chunks = wf.work.chunks;
    scheduleAfter(duration == 0 ? 1 : duration, [this, w, chunks] {
        chunks_completed_ += chunks;
        wavefrontFetch(w);
    }, EventPriority::Device,
    {{"gpu.chunk", static_cast<std::uint64_t>(params_.device_id),
      static_cast<std::uint64_t>(w), chunks}, {}});
}

void
Gpu::maybeFinishKernel()
{
    if (main_visits_left_ != 0 || phase_ == Phase::Preload)
        return;
    for (const Wavefront &wf : wavefronts_)
        if (wf.busy)
            return;
    ++kernels_completed_;
    if (kernels_completed_ == 1)
        first_completion_ = now() - launch_time_;
    phase_ = Phase::Idle;
    if (on_kernel_complete_)
        on_kernel_complete_();
    if (loop_)
        resetForLaunch();
}

double
Gpu::ssrRate() const
{
    const Tick elapsed = now();
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(faults_resolved_) / ticksToSec(elapsed);
}

EventQueue::Callback
Gpu::rebuildEvent(const snap::Tag &tag)
{
    const snap::Token &t = tag.self;
    snap::checkIndex(t.b, wavefronts_.size(), "gpu event wavefront");
    const int w = static_cast<int>(t.b);
    if (t.is("gpu.retry"))
        return [this, w] { beginTranslate(w); };
    if (t.is("gpu.replay"))
        return [this, w] { processChunks(w); };
    if (t.is("gpu.chunk")) {
        const std::uint64_t chunks = t.c;
        return [this, w, chunks] {
            chunks_completed_ += chunks;
            wavefrontFetch(w);
        };
    }
    throw snap::SnapshotError(
        std::string("unknown gpu event tag '")
        + (t.kind != nullptr ? t.kind : "") + "'");
}

void
Gpu::snapIo(snap::Io &io)
{
    io.section(name().c_str());
    // batching_ is only true synchronously inside resetForLaunch, so
    // it can never be set at an event boundary where saves happen.
    snap::Access::io(io, rng());
    io.b(demand_paging_);
    io.b(loop_);
    io.as32(phase_);
    io.expect(wavefronts_.size(),
              name() + ": wavefront count mismatch (launch() not "
                       "replayed with the snapshot's workload?)");
    for (Wavefront &wf : wavefronts_) {
        io.b(wf.busy);
        io.u64(wf.work.vpn);
        io.u64(wf.work.chunks);
        io.b(wf.work.fresh);
        io.b(wf.work.valid);
        io.u64(wf.stall_start);
        io.as32(wf.retries);
        io.u64(wf.backoff);
    }
    io.seq(slot_waiters_, [this, &io](int &waiter) {
        io.as32(waiter);
        snap::checkIndex(waiter, wavefronts_.size(), "slot-waiting wavefront");
    });
    io.u32(outstanding_);
    io.u64(next_new_vpn_);
    io.u64(touched_pages_);
    io.u64(preload_pages_left_);
    io.u64(main_visits_left_);
    io.u64(generation_);
    io.u64(kernels_completed_);
    io.u64(first_completion_);
    io.u64(launch_time_);
    io.u64(chunks_completed_);
    io.u64(faults_issued_);
    io.u64(faults_resolved_);
    io.u64(aborted_wavefronts_);
    io.u64(translate_retries_);
    io.u64(stall_ticks_);
}

} // namespace hiss
