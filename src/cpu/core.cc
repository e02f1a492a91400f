#include "cpu/core.h"

#include <cmath>

#include "sim/logging.h"
#include "sim/tracing.h"
#include "snap/access.h"

namespace hiss {
namespace {

/** Locality profile of kernel handler code/data. */
MemoryProfile
kernelMemoryProfile()
{
    MemoryProfile p;
    p.working_set_bytes = 96 * 1024;
    p.hot_set_bytes = 24 * 1024;
    p.hot_fraction = 0.55;
    p.stride_fraction = 0.4;
    return p;
}

BranchProfile
kernelBranchProfile()
{
    BranchProfile p;
    p.static_branches = 256;
    p.bias_min = 0.55;
    p.bias_max = 0.95;
    p.pattern_noise = 0.08;
    return p;
}

/** Base virtual address of the simulated kernel image/data region. */
constexpr Addr kKernelBase = 0xffff'8000'0000'0000ULL;

/** Flush the deferred kernel footprint once either pending counter
 *  reaches this, bounding scratch-buffer growth during long
 *  burst-free interrupt storms. */
constexpr std::uint32_t kMaxPendingFootprint = 4096;

} // namespace

CpuCore::CpuCore(SimContext &ctx, int index, const CpuCoreParams &params,
                 CoreListener &listener)
    : SimObject(ctx, "core" + std::to_string(index)),
      index_(index),
      params_(params),
      clock_(params.freq_ghz),
      listener_(listener),
      l1d_(params.l1d),
      bp_(params.bp),
      kernel_astream_(kernelMemoryProfile(),
                      kKernelBase + static_cast<Addr>(index) * (1 << 20),
                      ctx.seed ^ (0x9e00ULL + static_cast<Addr>(index))),
      kernel_bstream_(kernelBranchProfile(),
                      kKernelBase + static_cast<Addr>(index) * (1 << 20)
                          + (1 << 19),
                      ctx.seed ^ (0xb700ULL + static_cast<Addr>(index)))
{
    auto &reg = stats();
    const std::string p = name() + ".";
    reg.addFormula(p + "ticks.user", "user-mode busy ticks",
                   [this] { return static_cast<double>(user_ticks_); });
    reg.addFormula(p + "ticks.kernel", "kernel-mode busy ticks",
                   [this] { return static_cast<double>(kernel_ticks_); });
    reg.addFormula(p + "ticks.ssr", "ticks spent in SSR handling",
                   [this] { return static_cast<double>(ssr_ticks_); });
    reg.addFormula(p + "ticks.cc6", "ticks resident in CC6",
                   [this] { return static_cast<double>(cc6Ticks()); });
    reg.addFormula(p + "irqs", "interrupts serviced",
                   [this] { return static_cast<double>(irq_count_); });
    reg.addFormula(p + "ipis", "inter-processor interrupts received",
                   [this] { return static_cast<double>(ipi_count_); });
    reg.addFormula(p + "wakeups", "CC6 exits",
                   [this] { return static_cast<double>(wakeups_); });
    reg.addFormula(p + "mode_switches", "user<->kernel transitions",
                   [this] { return static_cast<double>(mode_switches_); });
    reg.addFormula(p + "ctx_switches", "thread context switches",
                   [this] { return static_cast<double>(ctx_switches_); });
    reg.addFormula(p + "instructions.user", "user instructions retired",
                   [this] {
                       return static_cast<double>(user_instructions_);
                   });
    reg.addFormula(p + "l1d.user_accesses", "user-attributed L1D accesses",
                   [this] {
                       return static_cast<double>(user_l1d_accesses_);
                   });
    reg.addFormula(p + "l1d.user_misses", "user-attributed L1D misses",
                   [this] {
                       return static_cast<double>(user_l1d_misses_);
                   });
    reg.addFormula(p + "bp.user_branches", "user-attributed branches",
                   [this] { return static_cast<double>(user_branches_); });
    reg.addFormula(p + "bp.user_mispredicts",
                   "user-attributed branch mispredicts",
                   [this] {
                       return static_cast<double>(user_branch_misses_);
                   });
}

bool
CpuCore::canDispatch() const
{
    return state_ == CoreState::Idle && current_ == nullptr;
}

void
CpuCore::dispatch(Thread *thread)
{
    if (!canDispatch())
        panic("%s: dispatch in state %d", name().c_str(),
              static_cast<int>(state_));
    if (thread == nullptr)
        panic("%s: dispatch(nullptr)", name().c_str());
    cancelSleepTimers();
    current_ = thread;
    thread->setState(ThreadState::Running);
    thread->setLastCore(index_);
    thread->resetRunClock();
    ++ctx_switches_;
    pending_overhead_ += params_.context_switch;
    state_ = CoreState::Running;
    startNextBurst();
}

void
CpuCore::continueThread()
{
    if (current_ == nullptr || burst_active_)
        panic("%s: continueThread without a parked thread",
              name().c_str());
    state_ = CoreState::Running;
    startNextBurst();
}

Thread *
CpuCore::detachCurrent()
{
    if (current_ == nullptr || burst_active_)
        panic("%s: detachCurrent outside a boundary", name().c_str());
    Thread *old = current_;
    current_ = nullptr;
    state_ = CoreState::Idle;
    return old;
}

void
CpuCore::goIdle()
{
    if (current_ != nullptr)
        panic("%s: goIdle with an attached thread", name().c_str());
    state_ = CoreState::Idle;
    if (grace_event_ == kInvalidEventId || !events().pending(grace_event_))
        grace_event_ = scheduleAfter(
            params_.idle_grace, [this] { enterSleep(); },
            EventPriority::Stats,
            {{"core.grace", static_cast<std::uint64_t>(index_)}, {}});
}

void
CpuCore::postInterrupt(Irq irq)
{
    // Update the idle governor's inter-arrival predictor.
    const Tick gap = std::min<Tick>(now() - last_irq_time_,
                                    msToTicks(1));
    last_irq_time_ = now();
    irq_gap_ema_ = (irq_gap_ema_ * 7 + gap * 3) / 10;

    pending_irqs_.push_back(std::move(irq));
    switch (state_) {
      case CoreState::Asleep:
        beginWake();
        break;
      case CoreState::Waking:
      case CoreState::InIrq:
        break; // Will drain when the current activity completes.
      case CoreState::Idle:
        cancelSleepTimers();
        serviceNextIrq();
        break;
      case CoreState::Running:
        if (burst_active_) {
            truncateBurst();
            serviceNextIrq();
        }
        // else: a boundary is already unwinding on the stack; it will
        // notice the pending irq.
        break;
    }
}

void
CpuCore::requestResched()
{
    if (state_ == CoreState::Running && burst_active_) {
        truncateBurst();
        boundary();
    }
}

void
CpuCore::startNextBurst()
{
    if (current_ == nullptr)
        panic("%s: startNextBurst without a thread", name().c_str());
    const BurstRequest request = current_->model().nextBurst(*this);
    switch (request.kind) {
      case BurstRequest::Kind::Run:
        beginRunBurst(request);
        return;
      case BurstRequest::Kind::Sleep:
      case BurstRequest::Kind::Block:
      case BurstRequest::Kind::Finish: {
        Thread *thread = current_;
        current_ = nullptr;
        state_ = CoreState::Idle;
        listener_.threadYielded(*this, *thread, request);
        if (!pending_irqs_.empty())
            serviceNextIrq();
        else if (state_ == CoreState::Idle && current_ == nullptr)
            listener_.coreIdle(*this);
        return;
      }
    }
    panic("%s: unknown burst kind", name().c_str());
}

void
CpuCore::beginRunBurst(const BurstRequest &request)
{
    burst_ = request;
    if (request.kernel_mode != last_mode_kernel_)
        accountModeSwitch(request.kernel_mode);
    burst_overhead_ = pending_overhead_;
    pending_overhead_ = 0;

    // Drive this burst's footprint sample through the live
    // microarchitectural state and measure the rates it experienced.
    // Batched substrate path: generate the whole sample into the
    // core's scratch buffers, then run the L1D/BP batch kernels over
    // it — draw order and results bit-identical to the scalar loops.
    const bool samples_l1d =
        request.astream != nullptr && request.mem_accesses > 0;
    const bool samples_bp =
        request.bstream != nullptr && request.branches > 0;
    // Deferred kernel footprints must land before this burst's sample
    // measures the pollution they caused.
    if (samples_l1d || samples_bp)
        flushKernelFootprint();
    double sample_miss_rate = 0.0;
    double sample_mispredict_rate = 0.0;
    if (samples_l1d) {
        const std::uint32_t dacc = request.mem_accesses;
        if (addr_scratch_.size() < dacc)
            addr_scratch_.resize(dacc);
        request.astream->fill(addr_scratch_.data(), dacc);
        const std::uint64_t dmis =
            l1d_.accessBatch(addr_scratch_.data(), dacc);
        sample_miss_rate =
            static_cast<double>(dmis) / static_cast<double>(dacc);
        if (!request.kernel_mode) {
            user_l1d_accesses_ += dacc;
            user_l1d_misses_ += dmis;
        }
    }
    if (request.astream == nullptr && request.kernel_mode
        && request.mem_accesses > 0) {
        // Kernel bursts without a private stream pollute through the
        // core's shared kernel footprint streams.
        driveKernelFootprint(request.mem_accesses, request.branches);
        // If this burst also samples a branch stream, that sample
        // must see the footprint just driven.
        if (samples_bp)
            flushKernelFootprint();
    }
    if (samples_bp) {
        const std::uint32_t dlk = request.branches;
        if (branch_scratch_.size() < dlk)
            branch_scratch_.resize(dlk);
        request.bstream->fill(branch_scratch_.data(), dlk);
        const std::uint64_t dmp =
            bp_.predictBatch(branch_scratch_.data(), dlk);
        sample_mispredict_rate =
            static_cast<double>(dmp) / static_cast<double>(dlk);
        if (!request.kernel_mode) {
            user_branches_ += dlk;
            user_branch_misses_ += dmp;
        }
    }

    Tick duration;
    if (request.instructions > 0) {
        const double cpi_eff = request.base_cpi
            + params_.accesses_per_inst * sample_miss_rate
                  * params_.l1_miss_penalty_cycles
            + params_.branches_per_inst * sample_mispredict_rate
                  * params_.branch_penalty_cycles;
        duration = clock_.cyclesToTicks(
            static_cast<double>(request.instructions) * cpi_eff);
        burst_instructions_ = request.instructions;
    } else {
        duration = request.duration;
        burst_instructions_ = static_cast<std::uint64_t>(
            clock_.ticksToCycles(duration) / params_.kernel_cpi);
    }
    if (duration == 0)
        duration = 1;
    duration += burst_overhead_;

    burst_start_ = now();
    burst_duration_ = duration;
    burst_active_ = true;
    state_ = CoreState::Running;
    burst_event_ = scheduleAfter(
        duration, [this] { finishBurst(); }, EventPriority::Default,
        {{"core.burst", static_cast<std::uint64_t>(index_)}, {}});
}

void
CpuCore::finishBurst()
{
    burst_active_ = false;
    const Tick ran = burst_duration_;
    accountBurst(ran, burst_, burst_instructions_);
    if (traceWriter() != nullptr)
        traceWriter()->complete(index_, current_->name(),
                                burst_.kernel_mode ? "kburst" : "burst",
                                burst_start_, ran);
    current_->model().onBurstDone(*this, ran, burst_instructions_, true);
    boundary();
}

void
CpuCore::truncateBurst()
{
    if (!burst_active_)
        panic("%s: truncateBurst without an active burst", name().c_str());
    events().cancel(burst_event_);
    burst_active_ = false;
    const Tick ran = now() - burst_start_;
    const double fraction = burst_duration_ == 0
        ? 0.0
        : static_cast<double>(ran) / static_cast<double>(burst_duration_);
    const auto insts = static_cast<std::uint64_t>(
        std::llround(fraction * static_cast<double>(burst_instructions_)));
    accountBurst(ran, burst_, insts);
    if (traceWriter() != nullptr && ran > 0)
        traceWriter()->complete(index_, current_->name() + " (preempted)",
                                burst_.kernel_mode ? "kburst" : "burst",
                                burst_start_, ran);
    // Unconsumed switch overhead carries over to the burst's resumption.
    if (ran < burst_overhead_)
        pending_overhead_ += burst_overhead_ - ran;
    current_->model().onBurstDone(*this, ran, insts, false);
}

void
CpuCore::boundary()
{
    if (!pending_irqs_.empty()) {
        serviceNextIrq();
        return;
    }
    if (current_ != nullptr) {
        state_ = CoreState::Running;
        listener_.coreBoundary(*this);
    } else {
        state_ = CoreState::Idle;
        listener_.coreIdle(*this);
    }
}

void
CpuCore::serviceNextIrq()
{
    if (pending_irqs_.empty())
        panic("%s: serviceNextIrq with empty queue", name().c_str());
    active_irq_ = std::move(pending_irqs_.front());
    pending_irqs_.pop_front();
    state_ = CoreState::InIrq;
    ++irq_count_;
    if (active_irq_->is_ipi)
        ++ipi_count_;

    if (!last_mode_kernel_)
        accountModeSwitch(true);
    const Tick overhead = params_.irq_entry_overhead + pending_overhead_;
    pending_overhead_ = 0;

    driveKernelFootprint(active_irq_->footprint_accesses,
                         active_irq_->footprint_branches);

    const Tick body = active_irq_->on_start
        ? active_irq_->on_start(*this) : Tick{0};
    irq_start_ = now();
    irq_duration_ = overhead + body;
    if (irq_duration_ == 0)
        irq_duration_ = 1;
    irq_event_ = scheduleAfter(
        irq_duration_, [this] { finishIrq(); }, EventPriority::Interrupt,
        {{"core.irq", static_cast<std::uint64_t>(index_)}, {}});
}

void
CpuCore::finishIrq()
{
    kernel_ticks_ += irq_duration_;
    if (active_irq_->ssr_related)
        ssr_ticks_ += irq_duration_;
    if (traceWriter() != nullptr)
        traceWriter()->complete(index_, "irq:" + active_irq_->label,
                                "irq", irq_start_, irq_duration_);
    const Irq done = std::move(*active_irq_);
    active_irq_.reset();
    if (done.on_complete)
        done.on_complete(*this);
    boundary();
}

void
CpuCore::beginWake()
{
    if (state_ != CoreState::Asleep)
        panic("%s: beginWake while not asleep", name().c_str());
    cc6_ticks_ += now() - sleep_entered_;
    if (traceWriter() != nullptr)
        traceWriter()->complete(index_, "cc6", "sleep", sleep_entered_,
                                now() - sleep_entered_);
    state_ = CoreState::Waking;
    ++wakeups_;
    wake_event_ = scheduleAfter(
        params_.cc6_exit_latency, [this] { finishWake(); },
        EventPriority::Interrupt,
        {{"core.wake", static_cast<std::uint64_t>(index_)}, {}});
}

void
CpuCore::finishWake()
{
    state_ = CoreState::Idle;
    if (!pending_irqs_.empty())
        serviceNextIrq();
    else
        listener_.coreIdle(*this);
}

void
CpuCore::enterSleep()
{
    if (state_ != CoreState::Idle || current_ != nullptr)
        return; // A dispatch raced the grace timer; stay awake.
    if (irq_gap_ema_ < params_.min_sleep_gap
        && now() - last_irq_time_ < params_.min_sleep_gap) {
        // The governor predicts another interrupt too soon for CC6
        // residency to pay off; stay in shallow idle and re-check.
        grace_event_ = scheduleAfter(
            params_.idle_grace, [this] { enterSleep(); },
            EventPriority::Stats,
            {{"core.grace", static_cast<std::uint64_t>(index_)}, {}});
        return;
    }
    state_ = CoreState::Asleep;
    sleep_entered_ = now();
    // Deferred footprints land first so the access/miss counters (and
    // the BP state, which CC6 does not wipe) match eager driving.
    flushKernelFootprint();
    if (params_.cc6_flushes_l1)
        l1d_.flush();
}

void
CpuCore::cancelSleepTimers()
{
    if (grace_event_ != kInvalidEventId)
        events().cancel(grace_event_);
    grace_event_ = kInvalidEventId;
}

void
CpuCore::driveKernelFootprint(std::uint32_t accesses,
                              std::uint32_t branches)
{
    // Footprints are declared at real scale (lines/branches actually
    // touched); subsample to match the user streams' sampling rate.
    // The scaled() draws must stay here — one RNG draw per call, in
    // call order — even though the fills/consumes are deferred.
    const auto scaled = [this](std::uint32_t n) {
        const double want = static_cast<double>(n)
            * params_.footprint_scale;
        auto whole = static_cast<std::uint32_t>(want);
        if (rng().withProbability(want - static_cast<double>(whole)))
            ++whole;
        return whole;
    };
    pending_kfp_accesses_ += scaled(accesses);
    pending_kfp_branches_ += scaled(branches);
    if (pending_kfp_accesses_ >= kMaxPendingFootprint
        || pending_kfp_branches_ >= kMaxPendingFootprint)
        flushKernelFootprint();
}

void
CpuCore::flushKernelFootprint()
{
    const std::uint32_t acc = pending_kfp_accesses_;
    const std::uint32_t br = pending_kfp_branches_;
    pending_kfp_accesses_ = 0;
    pending_kfp_branches_ = 0;
    if (acc > 0) {
        if (addr_scratch_.size() < acc)
            addr_scratch_.resize(acc);
        kernel_astream_.fill(addr_scratch_.data(), acc);
        l1d_.accessBatch(addr_scratch_.data(), acc);
    }
    if (br > 0) {
        if (branch_scratch_.size() < br)
            branch_scratch_.resize(br);
        kernel_bstream_.fill(branch_scratch_.data(), br);
        bp_.predictBatch(branch_scratch_.data(), br);
    }
}

void
CpuCore::accountBurst(Tick ran, const BurstRequest &request,
                      std::uint64_t instructions)
{
    const Tick overhead = std::min(ran, burst_overhead_);
    const Tick body = ran - overhead;
    kernel_ticks_ += overhead;
    if (request.kernel_mode) {
        kernel_ticks_ += body;
        if (request.ssr_work)
            ssr_ticks_ += ran;
    } else {
        user_ticks_ += body;
        user_instructions_ += instructions;
    }
    if (current_ != nullptr) {
        current_->addRunTime(ran);
        current_->addTotalCpuTime(ran);
    }
}

void
CpuCore::accountModeSwitch(bool to_kernel)
{
    ++mode_switches_;
    pending_overhead_ += params_.mode_switch;
    last_mode_kernel_ = to_kernel;
}

Tick
CpuCore::cc6Ticks() const
{
    Tick total = cc6_ticks_;
    if (state_ == CoreState::Asleep)
        total += now() - sleep_entered_;
    return total;
}

void
CpuCore::finalizeStats()
{
    flushKernelFootprint();
    if (state_ == CoreState::Asleep) {
        cc6_ticks_ += now() - sleep_entered_;
        sleep_entered_ = now();
    }
}

namespace {

void
ioBurst(snap::Io &io, BurstRequest &b)
{
    io.as32(b.kind);
    io.u64(b.instructions);
    io.u64(b.duration);
    io.b(b.kernel_mode);
    io.b(b.ssr_work);
    io.u32(b.mem_accesses);
    io.u32(b.branches);
    io.f64(b.base_cpi);
    if (!io.saving()) {
        // Stream pointers are only read inside beginRunBurst, before
        // the stored copy is overwritten; a restored in-flight burst
        // never dereferences them again.
        b.astream = nullptr;
        b.bstream = nullptr;
    }
}

/** A queued irq travels as its producer token; restore rebuilds it
 *  through @p irqs. */
void
ioIrq(snap::Io &io, Irq &irq, const CpuCore::IrqRebuild &irqs)
{
    if (io.saving() && irq.token.empty())
        throw snap::SnapshotError("cannot snapshot: queued irq '" +
                                  irq.label + "' has no producer token");
    io.token(irq.token);
    if (!io.saving())
        irq = irqs(irq.token);
}

} // namespace

void
CpuCore::snapIo(snap::Io &io, const IrqRebuild &irqs,
                const std::function<Thread *(int)> &threadById)
{
    io.section(name().c_str());
    snap::Access::io(io, rng());
    snap::Access::io(io, l1d_);
    snap::Access::io(io, bp_);
    snap::Access::io(io, kernel_astream_);
    snap::Access::io(io, kernel_bstream_);
    io.u32(pending_kfp_accesses_);
    io.u32(pending_kfp_branches_);

    io.as32(state_);
    std::int64_t current_id = current_ != nullptr ? current_->id() : -1;
    io.i64(current_id);
    if (!io.saving())
        current_ = current_id >= 0
                       ? threadById(static_cast<int>(current_id))
                       : nullptr;

    io.u64(pending_overhead_);
    io.u64(burst_overhead_);
    io.b(burst_active_);
    ioBurst(io, burst_);
    io.u64(burst_start_);
    io.u64(burst_duration_);
    io.u64(burst_instructions_);
    io.u64(burst_event_);

    const auto irq = [&io, &irqs](Irq &queued) { ioIrq(io, queued, irqs); };
    io.seq(pending_irqs_, irq);
    io.optional(active_irq_, irq);
    io.u64(irq_start_);
    io.u64(irq_duration_);
    io.u64(irq_event_);

    io.u64(grace_event_);
    io.u64(wake_event_);
    io.u64(sleep_entered_);
    io.u64(cc6_ticks_);
    io.u64(last_irq_time_);
    io.u64(irq_gap_ema_);
    io.b(last_mode_kernel_);

    io.u64(user_ticks_);
    io.u64(kernel_ticks_);
    io.u64(ssr_ticks_);
    io.u64(irq_count_);
    io.u64(ipi_count_);
    io.u64(wakeups_);
    io.u64(mode_switches_);
    io.u64(ctx_switches_);
    io.u64(user_instructions_);
    io.u64(user_l1d_accesses_);
    io.u64(user_l1d_misses_);
    io.u64(user_branches_);
    io.u64(user_branch_misses_);
}

EventQueue::Callback
CpuCore::rebuildEvent(const snap::Tag &tag)
{
    if (tag.self.is("core.grace"))
        return [this] { enterSleep(); };
    if (tag.self.is("core.burst"))
        return [this] { finishBurst(); };
    if (tag.self.is("core.irq"))
        return [this] { finishIrq(); };
    if (tag.self.is("core.wake"))
        return [this] { finishWake(); };
    throw snap::SnapshotError("unknown core event tag '" +
                              std::string(tag.self.kind) + "'");
}

} // namespace hiss
