#include "core/cell_key.h"

#include <cstdio>

#include "snap/snap.h"

namespace hiss {
namespace {

void
appendKv(std::string &out, const char *key, const std::string &value)
{
    out += key;
    out += '=';
    out += value;
    out += '\n';
}

void
appendU64(std::string &out, const char *key, std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(value));
    appendKv(out, key, buf);
}

void
appendI64(std::string &out, const char *key, long long value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", value);
    appendKv(out, key, buf);
}

void
appendF64(std::string &out, const char *key, double value)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    appendKv(out, key, buf);
}

void
appendBool(std::string &out, const char *key, bool value)
{
    appendKv(out, key, value ? "1" : "0");
}

const char *
modeName(MeasureMode mode)
{
    switch (mode) {
      case MeasureMode::CpuPrimary: return "cpu_primary";
      case MeasureMode::GpuPrimary: return "gpu_primary";
      case MeasureMode::GpuOnly: return "gpu_only";
      case MeasureMode::CpuOnly: return "cpu_only";
    }
    return "?";
}

} // namespace

std::string
canonicalCellText(const ExperimentCell &cell)
{
    const ExperimentConfig &c = cell.config;
    std::string out;
    out.reserve(1024);
    appendI64(out, "cell_key_format", kCellKeyFormat);
    appendKv(out, "cpu", cell.cpu_app);
    appendKv(out, "gpu", cell.gpu_app);
    appendKv(out, "mode", modeName(cell.mode));
    appendI64(out, "reps", cell.reps);

    appendBool(out, "mit.steer", c.mitigation.steer_to_single_core);
    appendI64(out, "mit.steer_core", c.mitigation.steer_core);
    appendBool(out, "mit.coalesce", c.mitigation.interrupt_coalescing);
    appendU64(out, "mit.coalesce_window", c.mitigation.coalesce_window);
    appendBool(out, "mit.monolithic",
               c.mitigation.monolithic_bottom_half);

    appendF64(out, "qos_threshold", c.qos_threshold);
    appendU64(out, "seed", c.seed);
    appendBool(out, "demand_paging", c.gpu_demand_paging);
    appendU64(out, "rate_window", c.rate_window);
    appendU64(out, "max_sim_time", c.max_sim_time);
    appendI64(out, "extra_accelerators", c.extra_accelerators);
    appendBool(out, "check_invariants", c.check_invariants);

    const FaultPlan &f = c.fault;
    appendU64(out, "fault.ppr_queue_capacity", f.ppr_queue_capacity);
    appendF64(out, "fault.irq_drop_prob", f.irq_drop_prob);
    appendF64(out, "fault.irq_dup_prob", f.irq_dup_prob);
    appendF64(out, "fault.irq_delay_prob", f.irq_delay_prob);
    appendU64(out, "fault.irq_delay", f.irq_delay);
    appendF64(out, "fault.ipi_delay_prob", f.ipi_delay_prob);
    appendU64(out, "fault.ipi_delay", f.ipi_delay);
    appendF64(out, "fault.kworker_stall_prob", f.kworker_stall_prob);
    appendU64(out, "fault.kworker_stall", f.kworker_stall);
    appendF64(out, "fault.signal_loss_prob", f.signal_loss_prob);
    appendU64(out, "fault.irq_watchdog", f.irq_watchdog);
    appendU64(out, "fault.signal_resend", f.signal_resend);
    appendU64(out, "fault.request_timeout", f.request_timeout);
    appendI64(out, "fault.max_retries", f.max_retries);
    appendU64(out, "fault.retry_backoff_initial",
              f.retry_backoff_initial);
    appendU64(out, "fault.retry_backoff_max", f.retry_backoff_max);
    appendI64(out, "fault.unledgered_drops", f.unledgered_drops);

    // A non-default testbed folds in as its full human-readable
    // description: describe() names every structural parameter, so
    // distinct base systems get distinct keys without this file
    // chasing each subsystem's parameter list.
    if (c.base_system != nullptr)
        appendKv(out, "base_system", c.base_system->describe());
    else
        appendKv(out, "base_system", "table2-default");
    return out;
}

std::string
cellIdentity(const ExperimentCell &cell)
{
    char at[48] = "";
    if (cell.config.base_system != nullptr)
        std::snprintf(at, sizeof at, "base_system_at=%p\n",
                      static_cast<const void *>(cell.config.base_system));
    return canonicalCellText(cell) + at;
}

std::uint64_t
cellKey(const ExperimentCell &cell)
{
    snap::Hash64 h;
    h.mixString(canonicalCellText(cell));
    return h.value();
}

std::string
keyToHex(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

std::string
cellKeyHex(const ExperimentCell &cell)
{
    return keyToHex(cellKey(cell));
}

std::string
cellRepro(const ExperimentCell &cell)
{
    const ExperimentConfig &c = cell.config;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "seed=%llu cpu='%s' gpu='%s' mitigation=%s qos=%g "
        "demand_paging=%d accels=%d%s faults=%s reps=%d",
        static_cast<unsigned long long>(c.seed), cell.cpu_app.c_str(),
        cell.gpu_app.c_str(), c.mitigation.label().c_str(),
        c.qos_threshold, c.gpu_demand_paging ? 1 : 0,
        1 + c.extra_accelerators,
        c.check_invariants ? " check=on" : "", c.fault.label().c_str(),
        cell.reps);
    return buf;
}

} // namespace hiss
