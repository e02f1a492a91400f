#include "fault/fault_injector.h"

#include <algorithm>
#include <vector>

#include "snap/access.h"

namespace hiss {

FaultInjector::FaultInjector(SimContext &ctx, const FaultPlan &plan)
    : SimObject(ctx, "fault_injector"),
      plan_(plan),
      unledgered_drops_left_(plan.unledgered_drops)
{
    stats().addFormula("fault.pprs_overflowed",
                       "PPRs rejected by injected queue overflow",
                       [this] {
                           return static_cast<double>(pprs_overflowed_);
                       });
    stats().addFormula("fault.irqs_dropped",
                       "IRQ deliveries dropped by injection",
                       [this] {
                           return static_cast<double>(irqs_dropped_);
                       });
    stats().addFormula("fault.irqs_duplicated",
                       "IRQ deliveries duplicated by injection",
                       [this] {
                           return static_cast<double>(irqs_duplicated_);
                       });
    stats().addFormula("fault.irqs_delayed",
                       "IRQ deliveries delayed by injection",
                       [this] {
                           return static_cast<double>(irqs_delayed_);
                       });
    stats().addFormula("fault.ipis_delayed",
                       "resched IPIs delayed by injection",
                       [this] {
                           return static_cast<double>(ipis_delayed_);
                       });
    stats().addFormula("fault.kworker_stalls",
                       "kworker stalls injected",
                       [this] {
                           return static_cast<double>(kworker_stalls_);
                       });
    stats().addFormula("fault.signals_lost",
                       "GPU completion signals lost by injection",
                       [this] {
                           return static_cast<double>(signals_lost_);
                       });
    stats().addFormula("fault.total_injected",
                       "total faults injected across all classes",
                       [this] {
                           return static_cast<double>(totalInjected());
                       });
}

bool
FaultInjector::pprOverflow(std::size_t depth)
{
    if (plan_.ppr_queue_capacity == 0
        || depth < plan_.ppr_queue_capacity)
        return false;
    ++pprs_overflowed_;
    return true;
}

IrqFate
FaultInjector::irqFate()
{
    IrqFate fate;
    fate.dropped = rng().withProbability(plan_.irq_drop_prob);
    if (fate.dropped) {
        ++irqs_dropped_;
        return fate;
    }
    fate.duplicated = rng().withProbability(plan_.irq_dup_prob);
    if (fate.duplicated)
        ++irqs_duplicated_;
    if (rng().withProbability(plan_.irq_delay_prob)) {
        fate.extra_delay = plan_.irq_delay;
        ++irqs_delayed_;
    }
    return fate;
}

Tick
FaultInjector::ipiDelay()
{
    if (!rng().withProbability(plan_.ipi_delay_prob))
        return 0;
    ++ipis_delayed_;
    return plan_.ipi_delay;
}

Tick
FaultInjector::kworkerStall()
{
    if (!rng().withProbability(plan_.kworker_stall_prob))
        return 0;
    ++kworker_stalls_;
    return plan_.kworker_stall;
}

bool
FaultInjector::loseSignal()
{
    if (!rng().withProbability(plan_.signal_loss_prob))
        return false;
    ++signals_lost_;
    return true;
}

bool
FaultInjector::takeUnledgeredDrop()
{
    if (unledgered_drops_left_ <= 0)
        return false;
    --unledgered_drops_left_;
    return true;
}

void
FaultInjector::registerSource(const std::string &name, const void *source)
{
    sources_by_name_[name] = source;
    source_names_[source] = name;
}

void
FaultInjector::recordInjectedLoss(const void *source, std::uint64_t id)
{
    loss_ledger_[source].insert(id);
}

bool
FaultInjector::wasInjectedLoss(const void *source, std::uint64_t id) const
{
    const auto it = loss_ledger_.find(source);
    return it != loss_ledger_.end() && it->second.count(id) > 0;
}

std::uint64_t
FaultInjector::injectedLossCount(const void *source) const
{
    const auto it = loss_ledger_.find(source);
    return it == loss_ledger_.end() ? 0 : it->second.size();
}

std::uint64_t
FaultInjector::totalInjected() const
{
    return pprs_overflowed_ + irqs_dropped_ + irqs_duplicated_
           + irqs_delayed_ + ipis_delayed_ + kworker_stalls_
           + signals_lost_;
}

void
FaultInjector::snapSave(snap::Writer &w) const
{
    w.section("faults");
    snap::Access::save(w, rng());
    w.u64(pprs_overflowed_);
    w.u64(irqs_dropped_);
    w.u64(irqs_duplicated_);
    w.u64(irqs_delayed_);
    w.u64(ipis_delayed_);
    w.u64(kworker_stalls_);
    w.u64(signals_lost_);
    w.u32(static_cast<std::uint32_t>(unledgered_drops_left_));
    // Ledger, keyed by registered source name (name order for
    // determinism; ids sorted within each source).
    std::uint64_t named = 0;
    for (const auto &[source, ids] : loss_ledger_) {
        if (ids.empty())
            continue;
        if (source_names_.count(source) == 0)
            throw snap::SnapshotError(
                "loss ledger has entries from an unregistered source");
        ++named;
    }
    w.u64(named);
    for (const auto &[name, source] : sources_by_name_) {
        const auto it = loss_ledger_.find(source);
        if (it == loss_ledger_.end() || it->second.empty())
            continue;
        w.str(name);
        std::vector<std::uint64_t> ids(it->second.begin(),
                                       it->second.end());
        std::sort(ids.begin(), ids.end());
        w.u64(ids.size());
        for (const std::uint64_t id : ids)
            w.u64(id);
    }
}

void
FaultInjector::snapRestore(snap::Reader &r)
{
    r.section("faults");
    snap::Access::restore(r, rng());
    pprs_overflowed_ = r.u64();
    irqs_dropped_ = r.u64();
    irqs_duplicated_ = r.u64();
    irqs_delayed_ = r.u64();
    ipis_delayed_ = r.u64();
    kworker_stalls_ = r.u64();
    signals_lost_ = r.u64();
    unledgered_drops_left_ = static_cast<int>(r.u32());
    loss_ledger_.clear();
    const std::uint64_t named = r.u64();
    for (std::uint64_t i = 0; i < named; ++i) {
        const std::string name = r.str();
        const auto it = sources_by_name_.find(name);
        if (it == sources_by_name_.end())
            throw snap::SnapshotError("loss ledger names unknown source '"
                                      + name + "'");
        auto &ids = loss_ledger_[it->second];
        const std::uint64_t count = r.u64();
        for (std::uint64_t j = 0; j < count; ++j)
            ids.insert(r.u64());
    }
}

} // namespace hiss
