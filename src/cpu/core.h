/**
 * @file
 * CPU core model.
 *
 * A CpuCore executes Thread bursts and interrupt handlers against
 * its own structural L1D cache and branch predictor, tracks
 * user/kernel/SSR cycle accounting, and models C-state (CC6) sleep
 * with a wake latency. The OS kernel drives it through the
 * CoreListener interface; devices inject work via postInterrupt().
 *
 * Timing model: user bursts carry an instruction budget; their
 * duration is computed from an effective CPI measured by driving a
 * sample of the workload's address/branch streams through the live
 * cache and predictor (so kernel pollution slows subsequent user
 * bursts). Kernel bursts have fixed durations and kernel footprints.
 */

#ifndef HISS_CPU_CORE_H_
#define HISS_CPU_CORE_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/address_stream.h"
#include "mem/branch_predictor.h"
#include "mem/cache.h"
#include "os/thread.h"
#include "sim/sim_object.h"

namespace hiss {

/** An interrupt posted to a core. */
struct Irq
{
    /** Debug label ("iommu-ppr", "resched-ipi", "timer"). */
    std::string label;

    /**
     * Snapshot identity: names the producer that built this Irq so a
     * queued (not yet serviced) interrupt can be rebuilt on restore.
     * Producers that can have interrupts in flight at snapshot time
     * must set this; an untagged queued Irq fails the save.
     */
    snap::Token token;

    /** True for inter-processor interrupts (counted separately). */
    bool is_ipi = false;

    /** True if this interrupt is part of SSR handling (QoS account). */
    bool ssr_related = false;

    /**
     * Called when the handler starts executing; returns the top-half
     * body duration in ticks (computed at service time so it can
     * depend on, e.g., how many PPR queue entries are drained).
     */
    std::function<Tick(CpuCore &)> on_start;

    /** Called when the handler body has finished executing. */
    std::function<void(CpuCore &)> on_complete;

    /**
     * Kernel footprint driven through the core's L1D/BP:
     * distinct cache lines touched and dynamic branches executed
     * (branch damage scales with dynamic count because every branch
     * shifts global history and updates a pattern-table entry).
     */
    std::uint32_t footprint_accesses = 48;
    std::uint32_t footprint_branches = 420;
};

/** Timing and structure parameters for one core. */
struct CpuCoreParams
{
    double freq_ghz = 3.7;
    CacheParams l1d{16 * 1024, 4, 64};
    BranchPredictorParams bp{12, 12};

    /** One user<->kernel mode transition, in ticks. */
    Tick mode_switch = 150;
    /** Thread context switch cost, in ticks. */
    Tick context_switch = 1100;
    /** Hardirq entry+exit overhead beyond the handler body. */
    Tick irq_entry_overhead = 350;

    /** Extra cycles per L1D miss (applied to measured miss rate). */
    double l1_miss_penalty_cycles = 25.0;
    /** Extra cycles per branch mispredict. */
    double branch_penalty_cycles = 15.0;
    /** Accesses per instruction assumed by the CPI model. */
    double accesses_per_inst = 0.3;
    /** Branches per instruction assumed by the CPI model. */
    double branches_per_inst = 0.15;

    /**
     * Kernel-footprint subsampling factor. User bursts drive only a
     * sample of their real access stream (sample_accesses per slice,
     * ~1/20 of the real rate), so a handler's cache damage must be
     * scaled by the same ratio for the *measured* extra miss rate —
     * and hence the CPI penalty — to match what full-rate execution
     * would experience while recovering from the pollution.
     */
    double footprint_scale = 0.046;

    /** Idle time before the core drops into CC6 (menu-governor-like
     *  fast entry: enters deep idle quickly when no wake is seen). */
    Tick idle_grace = usToTicks(30);
    /** CC6 exit latency. */
    Tick cc6_exit_latency = usToTicks(40);
    /**
     * Governor prediction threshold: the core only enters CC6 when
     * its recent interrupt inter-arrival average exceeds this (a
     * menu-governor-style residency check; keeps cores in shallow
     * idle during continuous SSR streams).
     */
    Tick min_sleep_gap = usToTicks(100);
    /** Whether CC6 entry flushes the L1D (it does on real parts). */
    bool cc6_flushes_l1 = true;

    /** Assumed CPI of fixed-duration kernel bursts and handlers,
     *  used only to credit instruction counters. */
    double kernel_cpi = 1.6;
};

/** Externally visible core power/run state. */
enum class CoreState {
    Idle,    ///< Awake, nothing to run (pre-sleep grace window).
    Asleep,  ///< In CC6.
    Waking,  ///< CC6 exit in progress.
    Running, ///< Executing a thread burst.
    InIrq,   ///< Executing a hardirq handler.
};

/** Kernel-side hooks a CpuCore calls into (implemented by os::Kernel). */
class CoreListener
{
  public:
    virtual ~CoreListener() = default;

    /**
     * The core has nothing attached (no thread, no pending irqs).
     * The listener must either dispatch() a thread or goIdle() the
     * core before returning.
     */
    virtual void coreIdle(CpuCore &core) = 0;

    /**
     * A burst or irq chain finished and the previously-running
     * thread is still attached. The listener must call exactly one
     * of continueThread(), switchTo(), or detach-and-goIdle paths.
     */
    virtual void coreBoundary(CpuCore &core) = 0;

    /**
     * The attached thread's model requested Sleep/Block/Finish. The
     * core has already detached it; the listener owns its state
     * bookkeeping. coreIdle() will be invoked right after.
     */
    virtual void threadYielded(CpuCore &core, Thread &thread,
                               const BurstRequest &request) = 0;
};

/** A single CPU core. */
class CpuCore : public SimObject
{
  public:
    CpuCore(SimContext &ctx, int index, const CpuCoreParams &params,
            CoreListener &listener);

    int index() const { return index_; }
    CoreState state() const { return state_; }
    const CpuCoreParams &params() const { return params_; }
    const Clock &clock() const { return clock_; }

    Thread *currentThread() { return current_; }

    /** True if a dispatch() call is legal right now. */
    bool canDispatch() const;

    /** True while executing in hardirq context. */
    bool inIrqContext() const { return state_ == CoreState::InIrq; }

    /** True if the core is in CC6 or exiting it. */
    bool asleepOrWaking() const
    {
        return state_ == CoreState::Asleep || state_ == CoreState::Waking;
    }

    /**
     * Attach and start running @p thread. Core must be Idle and
     * awake (canDispatch()). Applies the context-switch cost.
     */
    void dispatch(Thread *thread);

    /** Resume the attached thread after a boundary. */
    void continueThread();

    /**
     * At a boundary: put the attached thread aside (caller re-queues
     * it) and run @p next instead. Context-switch cost applies.
     * @return the previously attached thread.
     */
    Thread *switchTo(Thread *next);

    /**
     * At a boundary with an attached thread: detach it without
     * running anything (thread blocked/finished handled by caller).
     * @return the detached thread.
     */
    Thread *detachCurrent();

    /** Enter the idle state (begins the CC6 grace countdown). */
    void goIdle();

    /** Inject an interrupt; wakes the core if asleep. */
    void postInterrupt(Irq irq);

    /**
     * Ask the core to stop the current burst at the current tick so
     * the kernel can make a scheduling decision. No-op unless a
     * thread burst is in flight.
     */
    void requestResched();

    /**
     * Drive a kernel footprint through this core's L1D and branch
     * predictor (used by irq handlers and kernel bursts).
     *
     * Deferred: the scaled sample sizes are drawn immediately (so the
     * core's RNG stream order is unchanged), but the fills/consumes
     * accumulate and run as one batch at the next point the L1D/BP
     * state is observed (burst sampling, CC6 entry, finalizeStats).
     * Stream fills are split-invariant (fill(a); fill(b) == fill(a+b),
     * pinned by SubstrateBatch.*), so the aggregate is bit-identical
     * to eager per-handler driving.
     */
    void driveKernelFootprint(std::uint32_t accesses,
                              std::uint32_t branches);

    /** Fold any in-progress residency interval into the stats. */
    void finalizeStats();

    /// @name Cycle/event accounting (ticks of CPU time).
    /// @{
    Tick userTicks() const { return user_ticks_; }
    Tick kernelTicks() const { return kernel_ticks_; }
    Tick ssrTicks() const { return ssr_ticks_; }
    Tick cc6Ticks() const;
    std::uint64_t irqCount() const { return irq_count_; }
    std::uint64_t ipiCount() const { return ipi_count_; }
    /// @}

    /// @name User-mode microarchitectural counters (Fig. 5 inputs).
    /// @{
    std::uint64_t userL1dAccesses() const { return user_l1d_accesses_; }
    std::uint64_t userL1dMisses() const { return user_l1d_misses_; }
    std::uint64_t userBranches() const { return user_branches_; }
    std::uint64_t userBranchMisses() const { return user_branch_misses_; }
    /// @}

    Cache &l1d() { return l1d_; }
    BranchPredictor &branchPredictor() { return bp_; }

    /// @name Snapshot support.
    /// @{
    /** Rebuilds a queued Irq from its producer token on restore. */
    using IrqRebuild = std::function<Irq(const snap::Token &)>;

    /**
     * Walk all dynamic core state (substrate, burst, irqs).
     * @param irqs       rebuilds queued interrupts from their tokens
     *                   on restore.
     * @param threadById resolves the attached thread on restore.
     */
    void snapIo(snap::Io &io, const IrqRebuild &irqs,
                const std::function<Thread *(int)> &threadById);

    /** Rebuild a pending event callback from its tag ("core.*"). */
    EventQueue::Callback rebuildEvent(const snap::Tag &tag);

    /// @}

  private:
    void startNextBurst();
    void beginRunBurst(const BurstRequest &request);
    void finishBurst();
    void truncateBurst();
    void boundary();
    void serviceNextIrq();
    void finishIrq();
    void beginWake();
    void finishWake();
    void enterSleep();
    void cancelSleepTimers();
    void accountBurst(Tick ran, const BurstRequest &request,
                      std::uint64_t instructions);
    void accountModeSwitch(bool to_kernel);
    /** Run the accumulated kernel footprint through the L1D/BP. */
    void flushKernelFootprint();

    // HISS_STATE_EXEMPT(index_): identity; the kernel saves cores in
    // index order and restores each onto the same slot
    int index_;
    // HISS_STATE_EXEMPT(params_): construction config, covered by the
    // snapshot config fingerprint
    CpuCoreParams params_;
    // HISS_STATE_EXEMPT(clock_): structural; tick scaling fixed by the
    // core's construction parameters
    Clock clock_;
    CoreListener &listener_;

    Cache l1d_;
    BranchPredictor bp_;

    /** Kernel-code streams shared by all handlers on this core. */
    AddressStream kernel_astream_;
    BranchStream kernel_bstream_;

    /** Reusable burst-sample buffers for the batched substrate path
     *  (filled by the streams, consumed by the L1D/BP batch kernels;
     *  sized to the largest footprint seen, never shrunk). */
    // HISS_STATE_EXEMPT(addr_scratch_): scratch; contents are dead
    // outside a single burst computation
    std::vector<Addr> addr_scratch_;
    // HISS_STATE_EXEMPT(branch_scratch_): scratch; contents are dead
    // outside a single burst computation
    std::vector<BranchStream::Outcome> branch_scratch_;

    /** Scaled kernel-footprint work accumulated but not yet driven
     *  (see driveKernelFootprint). */
    std::uint32_t pending_kfp_accesses_ = 0;
    std::uint32_t pending_kfp_branches_ = 0;

    CoreState state_ = CoreState::Idle;
    Thread *current_ = nullptr;

    // In-flight burst bookkeeping.
    /** Switch overheads accrued but not yet folded into a burst. */
    Tick pending_overhead_ = 0;
    /** Overhead portion folded into the current burst's duration. */
    Tick burst_overhead_ = 0;
    bool burst_active_ = false;
    BurstRequest burst_;
    Tick burst_start_ = 0;
    Tick burst_duration_ = 0;
    std::uint64_t burst_instructions_ = 0;
    EventId burst_event_ = kInvalidEventId;

    // Interrupts.
    std::deque<Irq> pending_irqs_;
    std::optional<Irq> active_irq_;
    Tick irq_start_ = 0;
    Tick irq_duration_ = 0;
    EventId irq_event_ = kInvalidEventId;

    // Sleep machinery.
    EventId grace_event_ = kInvalidEventId;
    EventId wake_event_ = kInvalidEventId;
    Tick sleep_entered_ = 0;
    Tick cc6_ticks_ = 0;
    Tick last_irq_time_ = 0;
    Tick irq_gap_ema_ = msToTicks(1); ///< Predicted irq inter-arrival.

    bool last_mode_kernel_ = false;

    // Accounting.
    Tick user_ticks_ = 0;
    Tick kernel_ticks_ = 0;
    Tick ssr_ticks_ = 0;
    std::uint64_t irq_count_ = 0;
    std::uint64_t ipi_count_ = 0;
    std::uint64_t wakeups_ = 0;
    std::uint64_t mode_switches_ = 0;
    std::uint64_t ctx_switches_ = 0;
    std::uint64_t user_instructions_ = 0;
    std::uint64_t user_l1d_accesses_ = 0;
    std::uint64_t user_l1d_misses_ = 0;
    std::uint64_t user_branches_ = 0;
    std::uint64_t user_branch_misses_ = 0;
};

} // namespace hiss

#endif // HISS_CPU_CORE_H_
