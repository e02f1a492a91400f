#include "core/cell_key.h"

#include <cstdio>
#include <string_view>
#include <type_traits>

#include "snap/snap.h"

namespace hiss {
namespace {

/** Appends key=value lines to one text, every key under one prefix. */
class Lines
{
  public:
    Lines(std::string &out, const char *prefix)
        : out_(out), prefix_(prefix)
    {
    }

    /** Strings verbatim; doubles %.17g; integers, bools and enums as
     *  decimal integers. */
    template <typename T>
    void
    operator()(const char *key, const T &value) const
    {
        out_ += prefix_;
        out_ += key;
        out_ += '=';
        if constexpr (std::is_convertible_v<const T &, std::string_view>) {
            out_ += std::string_view(value);
        } else {
            char buf[48];
            if constexpr (std::is_floating_point_v<T>)
                std::snprintf(buf, sizeof buf, "%.17g", value);
            else if constexpr (std::is_unsigned_v<T>)
                std::snprintf(buf, sizeof buf, "%llu",
                              static_cast<unsigned long long>(value));
            else
                std::snprintf(buf, sizeof buf, "%lld",
                              static_cast<long long>(value));
            out_ += buf;
        }
        out_ += '\n';
    }

  private:
    std::string &out_;
    const char *prefix_;
};

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

/** A fault plan: the cell's own (fault.*) or its base's (base.fault.*). */
void
appendFault(const Lines &put, const FaultPlan &f)
{
    put("ppr_queue_capacity", f.ppr_queue_capacity);
    put("irq_drop_prob", f.irq_drop_prob);
    put("irq_dup_prob", f.irq_dup_prob);
    put("irq_delay_prob", f.irq_delay_prob);
    put("irq_delay", f.irq_delay);
    put("ipi_delay_prob", f.ipi_delay_prob);
    put("ipi_delay", f.ipi_delay);
    put("kworker_stall_prob", f.kworker_stall_prob);
    put("kworker_stall", f.kworker_stall);
    put("signal_loss_prob", f.signal_loss_prob);
    put("irq_watchdog", f.irq_watchdog);
    put("signal_resend", f.signal_resend);
    put("request_timeout", f.request_timeout);
    put("max_retries", f.max_retries);
    put("retry_backoff_initial", f.retry_backoff_initial);
    put("retry_backoff_max", f.retry_backoff_max);
    put("unledgered_drops", f.unledgered_drops);
}

} // namespace

std::string
canonicalCellText(const ExperimentCell &cell)
{
    const ExperimentConfig &c = cell.config;
    std::string out;
    out.reserve(1024);
    const Lines put(out, "");
    put("cell_key_format", kCellKeyFormat);
    put("cpu", cell.cpu_app);
    put("gpu", cell.gpu_app);
    put("mode", modeName(cell.mode));
    put("reps", cell.reps);

    put("mit.steer", c.mitigation.steer_to_single_core);
    put("mit.steer_core", c.mitigation.steer_core);
    put("mit.coalesce", c.mitigation.interrupt_coalescing);
    put("mit.coalesce_window", c.mitigation.coalesce_window);
    put("mit.monolithic", c.mitigation.monolithic_bottom_half);

    put("qos_threshold", c.qos_threshold);
    put("seed", c.seed);
    put("demand_paging", c.gpu_demand_paging);
    put("rate_window", c.rate_window);
    put("max_sim_time", c.max_sim_time);
    put("extra_accelerators", c.extra_accelerators);
    put("check_invariants", c.check_invariants);
    appendFault(Lines(out, "fault."), c.fault);

    // A base system folds in whole, fields that runCell overrides
    // (seed, mitigations, QoS, ...) included: a key may be
    // over-specific, never under-specific. The Table II default is
    // one marker line.
    if (c.base_system != nullptr)
        out += canonicalSystemText(*c.base_system);
    else
        put("base_system", "table2-default");
    return out;
}

std::string
canonicalSystemText(const SystemConfig &s)
{
    // Every leaf, in declaration order.
    std::string out;
    out.reserve(4096);
    const Lines base(out, "base.");
    base("num_cores", s.num_cores);

    const CpuCoreParams &core = s.core;
    const Lines c(out, "base.core.");
    c("freq_ghz", core.freq_ghz);
    c("l1d.size_bytes", core.l1d.size_bytes);
    c("l1d.assoc", core.l1d.assoc);
    c("l1d.line_bytes", core.l1d.line_bytes);
    c("bp.table_bits", core.bp.table_bits);
    c("bp.history_bits", core.bp.history_bits);
    c("mode_switch", core.mode_switch);
    c("context_switch", core.context_switch);
    c("irq_entry_overhead", core.irq_entry_overhead);
    c("l1_miss_penalty_cycles", core.l1_miss_penalty_cycles);
    c("branch_penalty_cycles", core.branch_penalty_cycles);
    c("accesses_per_inst", core.accesses_per_inst);
    c("branches_per_inst", core.branches_per_inst);
    c("footprint_scale", core.footprint_scale);
    c("idle_grace", core.idle_grace);
    c("cc6_exit_latency", core.cc6_exit_latency);
    c("min_sleep_gap", core.min_sleep_gap);
    c("cc6_flushes_l1", core.cc6_flushes_l1);
    c("kernel_cpi", core.kernel_cpi);

    const KernelParams &kernel = s.kernel;
    const Lines k(out, "base.kernel.");
    k("sched.wakeup_granularity", kernel.sched.wakeup_granularity);
    k("sched.instant_preempt_share", kernel.sched.instant_preempt_share);
    k("sched.timeslice", kernel.sched.timeslice);
    k("sched.resched_ipi_cost", kernel.sched.resched_ipi_cost);
    k("qos.enabled", kernel.qos.enabled);
    k("qos.policy", kernel.qos.policy);
    k("qos.bucket_cap_windows", kernel.qos.bucket_cap_windows);
    k("qos.threshold", kernel.qos.threshold);
    k("qos.period", kernel.qos.period);
    k("qos.window", kernel.qos.window);
    k("qos.initial_backoff", kernel.qos.initial_backoff);
    k("qos.max_backoff", kernel.qos.max_backoff);
    k("qos.sample_cost", kernel.qos.sample_cost);
    k("service_costs.signal", kernel.service_costs.signal);
    k("service_costs.page_fault", kernel.service_costs.page_fault);
    k("service_costs.mem_alloc", kernel.service_costs.mem_alloc);
    k("service_costs.file_read", kernel.service_costs.file_read);
    k("service_costs.page_migration",
      kernel.service_costs.page_migration);
    k("service_costs.jitter", kernel.service_costs.jitter);
    k("housekeeping_period", kernel.housekeeping_period);
    k("housekeeping_cost", kernel.housekeeping_cost);
    k("dram_frames", kernel.dram_frames);

    const GpuParams &gpu = s.gpu;
    const Lines g(out, "base.gpu.");
    g("freq_ghz", gpu.freq_ghz);
    g("max_outstanding", gpu.max_outstanding);
    g("batch_translate", gpu.batch_translate);
    g("device_id", gpu.device_id);

    const IommuParams &iommu = s.iommu;
    const Lines i(out, "base.iommu.");
    i("steering", iommu.steering);
    i("steer_core", iommu.steer_core);
    i("coalescing", iommu.coalescing);
    i("coalesce_window", iommu.coalesce_window);
    i("coalesce_burst", iommu.coalesce_burst);
    i("adaptive_coalescing", iommu.adaptive_coalescing);
    i("iotlb_hit_latency", iommu.iotlb_hit_latency);
    i("walk_latency", iommu.walk_latency);
    i("iotlb_entries", iommu.iotlb_entries);
    i("msi_latency", iommu.msi_latency);

    const SsrDriverParams &driver = s.ssr_driver;
    const Lines d(out, "base.ssr_driver.");
    d("monolithic_bottom_half", driver.monolithic_bottom_half);
    d("top_half_base", driver.top_half_base);
    d("top_half_per_entry", driver.top_half_per_entry);
    d("bottom_half_base", driver.bottom_half_base);
    d("bottom_half_per_entry", driver.bottom_half_per_entry);
    d("top_footprint_accesses", driver.top_footprint_accesses);
    d("top_footprint_branches", driver.top_footprint_branches);
    d("bh_footprint_accesses", driver.bh_footprint_accesses);
    d("bh_footprint_branches", driver.bh_footprint_branches);

    base("seed", s.seed);
    base("check_invariants", s.check_invariants);
    base("check_period", s.check_period);
    appendFault(Lines(out, "base.fault."), s.fault);
    return out;
}

std::uint64_t
textKey(const std::string &canonical)
{
    snap::Hash64 h;
    h.mixString(canonical);
    return h.value();
}

std::uint64_t
cellKey(const ExperimentCell &cell)
{
    return textKey(canonicalCellText(cell));
}

bool
inShard(const ExperimentCell &cell, std::uint64_t shard,
        std::uint64_t shard_count)
{
    return cellKey(cell) % shard_count == shard;
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
    std::string base = "table2-default";
    if (c.base_system != nullptr) {
        snap::Hash64 h;
        h.mixString(canonicalSystemText(*c.base_system));
        base = keyToHex(h.value());
    }
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "seed=%llu cpu='%s' gpu='%s' mode=%s mitigation=%s "
        "coalesce_window=%gus qos=%g demand_paging=%d accels=%d "
        "rate_window=%gms max_sim_time=%gms base=%s%s faults=%s "
        "reps=%d key=%s",
        static_cast<unsigned long long>(c.seed), cell.cpu_app.c_str(),
        cell.gpu_app.c_str(), modeName(cell.mode),
        c.mitigation.label().c_str(),
        ticksToUs(c.mitigation.coalesce_window), c.qos_threshold,
        c.gpu_demand_paging ? 1 : 0, 1 + c.extra_accelerators,
        ticksToMs(c.rate_window), ticksToMs(c.max_sim_time),
        base.c_str(), c.check_invariants ? " check=on" : "",
        c.fault.label().c_str(), cell.reps, cellKeyHex(cell).c_str());
    return buf;
}

} // namespace hiss
