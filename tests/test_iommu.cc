/** @file Unit tests for the IOMMU: IOTLB, walks, PPRs, MSI policies. */

#include <gtest/gtest.h>

#include <list>
#include <memory>
#include <unordered_set>
#include <vector>

#include "iommu/iommu.h"
#include "sim/logging.h"
#include "sim/random.h"

namespace hiss {
namespace {

class IommuTest : public ::testing::Test
{
  protected:
    IommuTest() : ctx{events, stats, 41} {}

    void
    build(IommuParams params = {}, int cores = 4)
    {
        KernelParams kparams;
        kparams.housekeeping_period = 0;
        kernel = std::make_unique<Kernel>(ctx, cores, CpuCoreParams{},
                                          kparams);
        iommu = std::make_unique<Iommu>(ctx, *kernel, params);
        // Wired as HeteroSystem wires it: steering pins the driver's
        // interrupt line to the steered core.
        const int irq_affinity =
            params.steering == MsiSteering::SingleCore ? params.steer_core
                                                       : kAffinityAny;
        driver = &kernel->attachSsrSource("iommu_drv", *iommu,
                                          SsrDriverParams{}, irq_affinity);
        iommu->setDriver(driver);
    }

    EventQueue events;
    StatRegistry stats;
    SimContext ctx;
    std::unique_ptr<Kernel> kernel;
    std::unique_ptr<Iommu> iommu;
    SsrDriver *driver = nullptr;
};

TEST_F(IommuTest, MappedPageResolvesViaWalkThenIotlb)
{
    build();
    kernel->gpuPageTable().map(50, 7);
    int done = 0;
    Tick first_done = 0;
    iommu->translate(50, [&](TranslateResult) {
        ++done;
        first_done = events.now();
    });
    events.runUntil(usToTicks(10));
    EXPECT_EQ(done, 1);
    EXPECT_EQ(first_done, iommu->params().walk_latency);
    EXPECT_EQ(iommu->iotlbMisses(), 1u);

    // Second access: IOTLB hit, much faster.
    const Tick start = events.now();
    Tick second_done = 0;
    iommu->translate(50, [&](TranslateResult) { second_done = events.now(); });
    events.runUntil(start + usToTicks(10));
    EXPECT_EQ(second_done - start, iommu->params().iotlb_hit_latency);
    EXPECT_EQ(iommu->iotlbHits(), 1u);
    EXPECT_EQ(iommu->pprsIssued(), 0u);
}

TEST_F(IommuTest, UnmappedPageFaultsThroughFullChain)
{
    build();
    int done = 0;
    iommu->translate(99, [&](TranslateResult) { ++done; });
    events.runUntil(msToTicks(2));
    EXPECT_EQ(done, 1);
    EXPECT_EQ(iommu->pprsIssued(), 1u);
    EXPECT_EQ(iommu->msisRaised(), 1u);
    EXPECT_EQ(iommu->faultsResolved(), 1u);
    EXPECT_TRUE(kernel->gpuPageTable().isMapped(99));
    // The resolved translation is cached.
    EXPECT_GE(iommu->iotlbMisses(), 1u);
}

TEST_F(IommuTest, PinnedModeAutoMapsWithoutHost)
{
    build();
    int done = 0;
    iommu->translate(123, [&](TranslateResult) { ++done; }, /*allow_fault=*/false);
    events.runUntil(usToTicks(10));
    EXPECT_EQ(done, 1);
    EXPECT_EQ(iommu->pprsIssued(), 0u);
    EXPECT_EQ(iommu->msisRaised(), 0u);
    EXPECT_TRUE(kernel->gpuPageTable().isMapped(123));
}

TEST_F(IommuTest, IotlbEvictsFifoWhenFull)
{
    IommuParams params;
    params.iotlb_entries = 4;
    build(params);
    for (Vpn v = 0; v < 6; ++v) {
        kernel->gpuPageTable().map(v, v + 100);
        iommu->translate(v, [](TranslateResult) {});
        events.runUntil(events.now() + usToTicks(2));
    }
    // vpns 0 and 1 were evicted; re-access misses the IOTLB.
    const std::uint64_t misses_before = iommu->iotlbMisses();
    iommu->translate(0, [](TranslateResult) {});
    events.runUntil(events.now() + usToTicks(2));
    EXPECT_EQ(iommu->iotlbMisses(), misses_before + 1);
}

TEST_F(IommuTest, SingleCoreSteeringTargetsOnlyThatCore)
{
    IommuParams params;
    params.steering = MsiSteering::SingleCore;
    params.steer_core = 2;
    build(params);
    for (Vpn v = 500; v < 510; ++v) {
        iommu->translate(v, [](TranslateResult) {});
        events.runUntil(events.now() + usToTicks(60));
    }
    events.runUntil(events.now() + msToTicks(1));
    const ProcStats &proc = kernel->procInterrupts();
    EXPECT_GT(proc.irqCount("iommu_drv", 2), 0u);
    EXPECT_EQ(proc.irqCount("iommu_drv", 0), 0u);
    EXPECT_EQ(proc.irqCount("iommu_drv", 1), 0u);
    EXPECT_EQ(proc.irqCount("iommu_drv", 3), 0u);
}

TEST_F(IommuTest, SteerCoreOutOfRangeRejected)
{
    IommuParams params;
    params.steering = MsiSteering::SingleCore;
    params.steer_core = 9;
    EXPECT_THROW(build(params), FatalError);
}

TEST_F(IommuTest, CoalescingBatchesPprsIntoOneMsi)
{
    IommuParams params;
    params.coalescing = true;
    params.coalesce_window = usToTicks(13);
    build(params);
    // Three faults well inside one window.
    iommu->translate(700, [](TranslateResult) {});
    events.runUntil(usToTicks(1));
    iommu->translate(701, [](TranslateResult) {});
    iommu->translate(702, [](TranslateResult) {});
    events.runUntil(usToTicks(5));
    // No MSI yet: the window is still open.
    EXPECT_EQ(iommu->msisRaised(), 0u);
    events.runUntil(msToTicks(2));
    EXPECT_EQ(iommu->msisRaised(), 1u);
    EXPECT_EQ(iommu->faultsResolved(), 3u);
}

TEST_F(IommuTest, CoalescingBurstThresholdRaisesEarly)
{
    IommuParams params;
    params.coalescing = true;
    params.coalesce_window = msToTicks(5); // Long window...
    params.coalesce_burst = 4;             // ...but a small burst cap.
    build(params);
    for (Vpn v = 800; v < 804; ++v)
        iommu->translate(v, [](TranslateResult) {});
    events.runUntil(usToTicks(50));
    EXPECT_GE(iommu->msisRaised(), 1u); // Raised well before 5 ms.
}

TEST_F(IommuTest, CoalescingValidation)
{
    IommuParams params;
    params.coalescing = true;
    params.coalesce_window = 0;
    EXPECT_THROW(build(params), FatalError);
}

TEST_F(IommuTest, FaultLatencyDistributionSampled)
{
    build();
    iommu->translate(900, [](TranslateResult) {});
    events.runUntil(msToTicks(2));
    const auto *latency = dynamic_cast<const Distribution *>(
        stats.find("iommu.fault_latency"));
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count(), 1u);
    EXPECT_GT(latency->mean(), 0.0);
}

TEST_F(IommuTest, DuplicateFaultsBothResolve)
{
    build();
    int done = 0;
    iommu->translate(950, [&](TranslateResult) { ++done; });
    iommu->translate(950, [&](TranslateResult) { ++done; });
    events.runUntil(msToTicks(2));
    EXPECT_EQ(done, 2);
    EXPECT_TRUE(kernel->gpuPageTable().isMapped(950));
}

TEST_F(IommuTest, PasidsFaultIntoSeparateAddressSpaces)
{
    build();
    int done = 0;
    iommu->translate(0x111, [&](TranslateResult) { ++done; }, true, /*pasid=*/0);
    events.runUntil(msToTicks(2));
    iommu->translate(0x222, [&](TranslateResult) { ++done; }, true, /*pasid=*/7);
    events.runUntil(msToTicks(4));
    EXPECT_EQ(done, 2);
    EXPECT_TRUE(kernel->gpuPageTable(0).isMapped(0x111));
    EXPECT_FALSE(kernel->gpuPageTable(0).isMapped(0x222));
    EXPECT_TRUE(kernel->gpuPageTable(7).isMapped(0x222));
    EXPECT_EQ(kernel->addressSpaces().size(), 2u);
}

TEST_F(IommuTest, AdaptiveCoalescingShortensSparseStreamWait)
{
    IommuParams params;
    params.coalescing = true;
    params.coalesce_window = usToTicks(13);
    params.adaptive_coalescing = true;
    build(params);
    // A lone PPR after a long quiet period: the adaptive window
    // should not make it wait anywhere near the 13 us maximum...
    events.runUntil(msToTicks(2));
    int done = 0;
    Tick done_at = 0;
    const Tick start = events.now();
    iommu->translate(0x800, [&](TranslateResult) {
        ++done;
        done_at = events.now();
    });
    events.runUntil(start + msToTicks(2));
    ASSERT_EQ(done, 1);
    const Tick fixed_window_floor = start + usToTicks(13);
    // ...so it resolves sooner than issue + full window + pipeline.
    EXPECT_LT(done_at, fixed_window_floor + usToTicks(8));
}

/** A second, self-contained IOMMU stack for side-by-side runs. */
struct BatchHarness
{
    explicit BatchHarness(IommuParams params = {})
        : ctx{events, stats, 41}
    {
        KernelParams kparams;
        kparams.housekeeping_period = 0;
        kernel = std::make_unique<Kernel>(ctx, 4, CpuCoreParams{},
                                          kparams);
        iommu = std::make_unique<Iommu>(ctx, *kernel, params);
        SsrDriver &driver = kernel->attachSsrSource(
            "iommu_drv", *iommu, SsrDriverParams{});
        iommu->setDriver(&driver);
    }

    EventQueue events;
    StatRegistry stats;
    SimContext ctx;
    std::unique_ptr<Kernel> kernel;
    std::unique_ptr<Iommu> iommu;
};

/** Issue-order completion log: (request index, completion tick). */
using CompletionLog = std::vector<std::pair<int, Tick>>;

/**
 * translateBatch must be observably identical to scalar translate()
 * calls issued in the same order at the same tick: same callback
 * order, same completion ticks, same counters — across a mix of
 * IOTLB hits, walk hits, and full-chain faults, with and without the
 * fused equal-latency event path.
 */
void
expectBatchMatchesScalar(IommuParams params)
{
    const std::vector<Vpn> warm = {10, 11};
    // 10/11: IOTLB hits. 12/13: mapped, walk hits. 200/201: faults.
    // Trailing 10 re-hit and duplicate 201 cover intra-batch repeats.
    const std::vector<Vpn> mix = {10, 12, 200, 11, 13, 201, 10, 201};

    CompletionLog scalar_log;
    CompletionLog batch_log;
    for (const bool batched : {false, true}) {
        BatchHarness h(params);
        for (Vpn v = 10; v <= 13; ++v)
            h.kernel->gpuPageTable().map(v, v + 100);
        for (const Vpn v : warm) {
            h.iommu->translate(v, [](TranslateResult) {});
            h.events.runUntil(h.events.now() + usToTicks(5));
        }
        const Tick issue_at = h.events.now();
        CompletionLog &log = batched ? batch_log : scalar_log;
        if (batched) {
            std::vector<Iommu::TranslateRequest> reqs;
            for (std::size_t i = 0; i < mix.size(); ++i) {
                const int idx = static_cast<int>(i);
                reqs.push_back(
                    {mix[i], [&log, idx, &h](TranslateResult) {
                         log.emplace_back(idx, h.events.now());
                     }, {}});
            }
            h.iommu->translateBatch(std::move(reqs));
        } else {
            for (std::size_t i = 0; i < mix.size(); ++i) {
                const int idx = static_cast<int>(i);
                h.iommu->translate(
                    mix[i], [&log, idx, &h](TranslateResult) {
                        log.emplace_back(idx, h.events.now());
                    });
            }
        }
        h.events.runUntil(issue_at + msToTicks(4));
        ASSERT_EQ(log.size(), mix.size())
            << (batched ? "batched" : "scalar");
        if (batched) {
            // Warm-up walks are misses; the mix re-hits 10, 11, 10.
            EXPECT_EQ(h.iommu->iotlbHits(), 3u);
            EXPECT_EQ(h.iommu->pprsIssued(), 3u);
            EXPECT_EQ(h.iommu->faultsResolved(), 3u);
        }
    }
    EXPECT_EQ(batch_log, scalar_log);
}

TEST_F(IommuTest, TranslateBatchMatchesScalarSequence)
{
    expectBatchMatchesScalar(IommuParams{});
}

TEST_F(IommuTest, TranslateBatchMatchesScalarWithEqualLatencies)
{
    // hit == walk latency exercises the fused single-event replay,
    // where scalar hit and walk completions interleave in issue order.
    IommuParams params;
    params.iotlb_hit_latency = params.walk_latency;
    expectBatchMatchesScalar(params);
}

TEST_F(IommuTest, TranslateBatchEmptyAndSingleton)
{
    build();
    iommu->translateBatch({}); // no-op, schedules nothing
    events.runUntil(usToTicks(1));
    EXPECT_EQ(iommu->iotlbHits() + iommu->iotlbMisses(), 0u);

    kernel->gpuPageTable().map(42, 7);
    int done = 0;
    std::vector<Iommu::TranslateRequest> one;
    one.push_back({42, [&](TranslateResult) { ++done; }, {}});
    iommu->translateBatch(std::move(one));
    events.runUntil(events.now() + usToTicks(10));
    EXPECT_EQ(done, 1);
    EXPECT_EQ(iommu->iotlbMisses(), 1u);
}

/**
 * The flat open-addressed IOTLB (probe table + ring cursor) must
 * implement exactly the list+map FIFO it replaced: same hit/miss
 * outcome for every access of a random workload that churns through
 * eviction continuously.
 */
TEST_F(IommuTest, FlatIotlbMatchesReferenceFifoModel)
{
    IommuParams params;
    params.iotlb_entries = 8;
    build(params);
    constexpr Vpn kPool = 32; // 4x capacity: constant eviction churn
    for (Vpn v = 0; v < kPool; ++v)
        kernel->gpuPageTable().map(v, v + 100);

    // Reference model: the seed's std::list + hash-set FIFO.
    std::list<Vpn> ref_fifo;
    std::unordered_set<Vpn> ref_set;
    const auto ref_access = [&](Vpn vpn) {
        if (ref_set.count(vpn) > 0)
            return true;
        if (ref_fifo.size() >= params.iotlb_entries) {
            ref_set.erase(ref_fifo.front());
            ref_fifo.pop_front();
        }
        ref_fifo.push_back(vpn);
        ref_set.insert(vpn);
        return false;
    };

    Rng rng(0xF1F0);
    std::uint64_t expect_hits = 0;
    std::uint64_t expect_misses = 0;
    for (int i = 0; i < 500; ++i) {
        const Vpn vpn = rng.uniformInt(0, kPool - 1);
        if (ref_access(vpn))
            ++expect_hits;
        else
            ++expect_misses;
        iommu->translate(vpn, [](TranslateResult) {});
        // Quiesce so the miss's insert lands before the next probe,
        // matching the reference model's synchronous insert.
        events.runUntil(events.now() + usToTicks(2));
        ASSERT_EQ(iommu->iotlbHits(), expect_hits) << "access " << i;
        ASSERT_EQ(iommu->iotlbMisses(), expect_misses) << "access " << i;
    }
    EXPECT_GT(expect_hits, 0u);
    EXPECT_GT(expect_misses, params.iotlb_entries);
}

TEST_F(IommuTest, ZeroIotlbEntriesRejected)
{
    IommuParams params;
    params.iotlb_entries = 0;
    EXPECT_THROW(build(params), FatalError);
}

} // namespace
} // namespace hiss
