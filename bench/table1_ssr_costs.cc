/**
 * @file
 * Table I: system service kinds and their complexity.
 *
 * The paper gives a qualitative complexity estimate per SSR kind;
 * here we measure each kind quantitatively in the model: the CPU
 * time a service consumes and its end-to-end latency through the
 * full top-half / bottom-half / kworker chain on an otherwise idle
 * system. The measured ordering must match the paper's tiers
 * (signals Low; allocation Moderate; faults Moderate-High; file
 * system and migration High).
 */

#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "os/ssr_driver.h"

namespace hiss::bench {
namespace {

/** A driver source we can feed arbitrary request kinds. */
class BenchSource : public RequestSource
{
  public:
    std::vector<SsrRequest>
    drain() override
    {
        std::vector<SsrRequest> out = std::move(pending);
        pending.clear();
        return out;
    }
    void ack() override {}
    std::vector<SsrRequest> pending;
};

struct KindResult
{
    double mean_cpu_us = 0.0;
    double mean_latency_us = 0.0;
};

KindResult
measureKind(ServiceKind kind, int n)
{
    EventQueue events;
    StatRegistry stats;
    SimContext ctx{events, stats, 1};
    KernelParams kparams;
    kparams.housekeeping_period = 0;
    Kernel kernel(ctx, 4, CpuCoreParams{}, kparams);
    BenchSource source;
    SsrDriver &driver =
        kernel.attachSsrSource("bench_drv", source, SsrDriverParams{});

    double latency_sum = 0.0;
    Vpn vpn = 0x1000;
    for (int i = 0; i < n; ++i) {
        const Tick before = events.now();
        Tick done_at = 0;
        SsrRequest request;
        request.id = static_cast<std::uint64_t>(i) + 1;
        request.kind = kind;
        request.vpn = vpn++;
        request.issued_at = before;
        request.on_service_complete = [&done_at](CpuCore &core) {
            done_at = core.now();
        };
        source.pending.push_back(std::move(request));
        kernel.deliverIrq(i % 4, driver.makeInterrupt());
        events.runUntil(before + msToTicks(5));
        latency_sum += ticksToUs(done_at - before);
        // Idle gap so each request is measured in isolation.
        events.runUntil(events.now() + usToTicks(300));
    }

    KindResult result;
    result.mean_latency_us = latency_sum / n;
    result.mean_cpu_us = ticksToUs(kernel.totalSsrTicks()) / n;
    return result;
}

/** Measures each kind with args.reps requests; declares no cells. */
void
print(const FigureArgs &args, const Results &)
{
    banner(
        "Table I: GPU system service requests and their complexity",
        "Signals: Low. Memory allocation: Moderate. Page faults: "
        "Moderate to High. File system: High. Page migration: High.");

    struct Row
    {
        ServiceKind kind;
        const char *description;
        const char *paper_tier;
    };
    const Row rows[] = {
        {ServiceKind::Signal,
         "notify another process (S_SENDMSG)", "Low"},
        {ServiceKind::MemAlloc,
         "allocate/free memory from the GPU", "Moderate"},
        {ServiceKind::PageFault,
         "demand-page an un-pinned GPU access", "Moderate-High"},
        {ServiceKind::FileRead,
         "access/modify files from the GPU", "High"},
        {ServiceKind::PageMigration,
         "GPU-initiated page migration", "High"},
    };

    std::printf("%-16s %-38s %-14s %12s %14s\n", "SSR", "description",
                "paper tier", "CPU us/req", "latency us");
    double previous_cpu = 0.0;
    bool monotone = true;
    for (const Row &row : rows) {
        progress(std::string("measuring ") + serviceKindName(row.kind));
        const KindResult r = measureKind(row.kind, args.reps);
        std::printf("%-16s %-38s %-14s %12.2f %14.2f\n",
                    serviceKindName(row.kind), row.description,
                    row.paper_tier, r.mean_cpu_us, r.mean_latency_us);
        if (r.mean_cpu_us < previous_cpu)
            monotone = false;
        previous_cpu = r.mean_cpu_us;
    }
    std::printf("\nMeasured CPU cost %s with the paper's "
                "complexity tiers.\n",
                monotone ? "increases monotonically, consistent"
                         : "is NOT monotone; check calibration");
}

} // namespace

const Figure kTable1 = {
    "table1", "GPU SSRs and their complexity (--reps: requests per kind)",
    40, nullptr, print};

} // namespace hiss::bench
