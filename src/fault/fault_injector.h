/**
 * @file
 * Deterministic fault scheduler for the SSR chain.
 *
 * The injector turns a FaultPlan into concrete fault decisions. All
 * randomness comes from one named Rng stream derived from the
 * experiment seed, so a faulty run is bit-reproducible and shrinkable
 * by hiss_fuzz. Components query the injector at well-defined points
 * (PPR enqueue, MSI raise, IPI send, kworker pop, signal send); a
 * null injector — the fault-free case — is a single pointer test on
 * each of those paths.
 *
 * The injector also keeps the *loss ledger*: every injected
 * permanent loss is recorded per (source, request id) so the
 * invariant layer can tell injected loss from a genuine model leak
 * (src/check/invariants.cc).
 */

#ifndef HISS_FAULT_FAULT_INJECTOR_H_
#define HISS_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "fault/fault_plan.h"
#include "sim/sim_object.h"
#include "snap/snap.h"

namespace hiss {

/** Per-delivery interrupt fault decision. */
struct IrqFate
{
    /** Delivery vanished; the device watchdog must re-raise. */
    bool dropped = false;
    /** Delivery additionally lands on a second core. */
    bool duplicated = false;
    /** Extra delivery latency (0 if no delay fault fired). */
    Tick extra_delay = 0;
};

/** Draws fault decisions from the plan; owns the loss ledger. */
class FaultInjector : public SimObject
{
  public:
    FaultInjector(SimContext &ctx, const FaultPlan &plan);

    const FaultPlan &plan() const { return plan_; }

    // -- fault decisions (each draws from the injector's stream) -----

    /** True if a PPR arriving at @p depth overflows the queue. */
    bool pprOverflow(std::size_t depth);

    /** Decide the fate of one MSI/IRQ delivery. */
    IrqFate irqFate();

    /** Extra delay for one resched IPI (0 = deliver on time). */
    Tick ipiDelay();

    /** Stall for one kworker about to take an item (0 = no stall). */
    Tick kworkerStall();

    /** True if one GPU completion signal is lost in the queue. */
    bool loseSignal();

    /**
     * Consume one deliberate unledgered driver drop (tests only);
     * true at most plan.unledgered_drops times.
     */
    bool takeUnledgeredDrop();

    // -- loss ledger --------------------------------------------------

    /**
     * Give @p source a stable name so its ledger entries survive a
     * snapshot (the ledger is keyed by pointer, which is only
     * meaningful within one process). Components that record losses
     * register themselves at construction.
     */
    void registerSource(const std::string &name, const void *source);

    /** Record an injected permanent loss of (source, id). */
    void recordInjectedLoss(const void *source, std::uint64_t id);

    /** True if (source, id) was recorded as injected loss. */
    bool wasInjectedLoss(const void *source, std::uint64_t id) const;

    /** Number of injected losses recorded against @p source. */
    std::uint64_t injectedLossCount(const void *source) const;

    // -- counters -----------------------------------------------------

    std::uint64_t pprsOverflowed() const { return pprs_overflowed_; }
    std::uint64_t irqsDropped() const { return irqs_dropped_; }
    std::uint64_t irqsDuplicated() const { return irqs_duplicated_; }
    std::uint64_t irqsDelayed() const { return irqs_delayed_; }
    std::uint64_t ipisDelayed() const { return ipis_delayed_; }
    std::uint64_t kworkerStalls() const { return kworker_stalls_; }
    std::uint64_t signalsLost() const { return signals_lost_; }

    /** Total faults injected across all classes. */
    std::uint64_t totalInjected() const;

    /// @name Snapshot support (rng stream, counters, loss ledger).
    /// @{
    void snapSave(snap::Writer &w) const;
    void snapRestore(snap::Reader &r);
    /// @}

  private:
    // HISS_STATE_EXEMPT(plan_): construction config (the fault plan),
    // fingerprinted alongside the experiment config
    FaultPlan plan_;

    std::unordered_map<const void *, std::unordered_set<std::uint64_t>>
        loss_ledger_;
    /** Stable source names for ledger serialization (name-sorted). */
    std::map<std::string, const void *> sources_by_name_;
    // HISS_STATE_EXEMPT(source_names_, restore): registration-time
    // reverse map; save emits it so restore can verify the same sources
    // re-registered — nothing to reassign
    std::unordered_map<const void *, std::string> source_names_;

    std::uint64_t pprs_overflowed_ = 0;
    std::uint64_t irqs_dropped_ = 0;
    std::uint64_t irqs_duplicated_ = 0;
    std::uint64_t irqs_delayed_ = 0;
    std::uint64_t ipis_delayed_ = 0;
    std::uint64_t kworker_stalls_ = 0;
    std::uint64_t signals_lost_ = 0;
    int unledgered_drops_left_ = 0;
};

} // namespace hiss

#endif // HISS_FAULT_FAULT_INJECTOR_H_
