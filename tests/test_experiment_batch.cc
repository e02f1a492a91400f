/**
 * @file
 * Tests for the parallel experiment engine.
 *
 * The load-bearing property is the determinism contract: a parallel
 * batch must be bit-identical to running the same cells serially
 * through ExperimentRunner, at any job count, however many of its
 * per-seed runs the batch shares between cells, and whether a result
 * cache served them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/result_cache.h"
#include "core/cell_key.h"
#include "core/experiment_batch.h"
#include "sim/logging.h"
#include "snap/snap.h"

namespace hiss {
namespace {

ExperimentConfig
fastConfig(std::uint64_t seed)
{
    ExperimentConfig config;
    config.seed = seed;
    config.rate_window = msToTicks(8);
    config.max_sim_time = msToTicks(400);
    return config;
}

/** Exact (bitwise for doubles) RunResult comparison. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.hit_time_cap, b.hit_time_cap);
    EXPECT_EQ(a.elapsed_ms, b.elapsed_ms);
    EXPECT_EQ(a.cpu_runtime_ms, b.cpu_runtime_ms);
    EXPECT_EQ(a.gpu_runtime_ms, b.gpu_runtime_ms);
    EXPECT_EQ(a.gpu_ssr_rate, b.gpu_ssr_rate);
    EXPECT_EQ(a.cc6_fraction, b.cc6_fraction);
    EXPECT_EQ(a.user_l1d_miss_rate, b.user_l1d_miss_rate);
    EXPECT_EQ(a.user_branch_miss_rate, b.user_branch_miss_rate);
    EXPECT_EQ(a.ssr_cpu_fraction, b.ssr_cpu_fraction);
    EXPECT_EQ(a.total_irqs, b.total_irqs);
    EXPECT_EQ(a.total_ipis, b.total_ipis);
    EXPECT_EQ(a.ssr_interrupts, b.ssr_interrupts);
    EXPECT_EQ(a.faults_resolved, b.faults_resolved);
    EXPECT_EQ(a.msis_raised, b.msis_raised);
    EXPECT_EQ(a.ssr_irqs_per_core, b.ssr_irqs_per_core);
}

/**
 * The serial reference for a cell: one ExperimentRunner::run per seed
 * (seed, seed+1, ...), folded by ExperimentRunner::average in seed
 * order.
 */
RunResult
serialReference(const ExperimentCell &cell)
{
    std::vector<RunResult> runs;
    for (int r = 0; r < cell.reps; ++r) {
        ExperimentConfig config = cell.config;
        config.seed += static_cast<std::uint64_t>(r);
        runs.push_back(ExperimentRunner::run(cell.cpu_app, cell.gpu_app,
                                             config, cell.mode));
    }
    return ExperimentRunner::average(runs);
}

/** The 2 CPU apps x 2 GPU apps x 2 seeds determinism grid. */
std::vector<ExperimentCell>
testGrid()
{
    std::vector<ExperimentCell> cells;
    for (const char *cpu : {"swaptions", "x264"})
        for (const char *gpu : {"ubench", "spmv"})
            for (std::uint64_t seed : {81u, 82u})
                cells.push_back({cpu, gpu, fastConfig(seed),
                                 MeasureMode::CpuPrimary, 1});
    return cells;
}

TEST(ExperimentBatch, ParallelMatchesSerialBitIdentically)
{
    const std::vector<ExperimentCell> cells = testGrid();
    const std::vector<RunResult> parallel =
        ExperimentBatch(4).run(cells);
    ASSERT_EQ(parallel.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const RunResult serial = ExperimentRunner::run(
            cells[i].cpu_app, cells[i].gpu_app, cells[i].config,
            cells[i].mode);
        expectIdentical(parallel[i], serial);
    }
}

TEST(ExperimentBatch, JobCountDoesNotChangeResults)
{
    // A smaller slice of the grid, re-run at several job counts.
    std::vector<ExperimentCell> cells = testGrid();
    cells.resize(4);
    const std::vector<RunResult> one = ExperimentBatch(1).run(cells);
    const std::vector<RunResult> three =
        ExperimentBatch(3).run(cells);
    const std::vector<RunResult> many =
        ExperimentBatch(16).run(cells);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        expectIdentical(one[i], three[i]);
        expectIdentical(one[i], many[i]);
    }
}

TEST(ExperimentBatch, RunAveragedMatchesSerialRunAveraged)
{
    const ExperimentCell cell{"", "spmv", fastConfig(81),
                              MeasureMode::GpuOnly, 3};
    expectIdentical(ExperimentBatch(3).run({cell}).front(),
                    serialReference(cell));
}

TEST(ExperimentBatch, CellRepsAverageLikeRunAveraged)
{
    ExperimentCell cell{"", "spmv", fastConfig(81),
                        MeasureMode::GpuOnly, 2};
    const std::vector<RunResult> results =
        ExperimentBatch(2).run({cell});
    ASSERT_EQ(results.size(), 1u);
    expectIdentical(results[0], serialReference(cell));
}

/**
 * A reps = 2 cell (seeds 81, 82), a reps = 1 cell at its second seed,
 * an exact duplicate of the first cell, and a reps = 2 cell at seeds
 * 82, 83 — half shared, half new.
 */
std::vector<ExperimentCell>
overlappingCells()
{
    const ExperimentCell pair{"", "spmv", fastConfig(81),
                              MeasureMode::GpuOnly, 2};
    ExperimentCell second = pair;
    second.reps = 1;
    second.config.seed = 82;
    ExperimentCell shifted = pair;
    shifted.config.seed = 82;
    return {pair, second, pair, shifted};
}

TEST(ExperimentBatch, DuplicateCellsMatchSeparateBatches)
{
    const std::vector<ExperimentCell> cells = overlappingCells();
    const std::vector<RunResult> together =
        ExperimentBatch(3).run(cells);
    ASSERT_EQ(together.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        expectIdentical(together[i],
                        ExperimentBatch(1).run({cells[i]}).front());
}

TEST(ExperimentBatch, EachDistinctRunExecutesOnce)
{
    // wall_ms counts only the runs a cell executed itself.
    const std::vector<CellOutcome> outcomes =
        ExperimentBatch(2).runCatching(overlappingCells());
    ASSERT_EQ(outcomes.size(), 4u);
    for (const CellOutcome &outcome : outcomes)
        EXPECT_TRUE(outcome.ok) << outcome.error;
    EXPECT_GT(outcomes[0].wall_ms, 0.0);
    EXPECT_EQ(outcomes[1].wall_ms, 0.0); // Seed 82 ran for cell 0.
    EXPECT_EQ(outcomes[2].wall_ms, 0.0); // Cell 0 again.
    EXPECT_GT(outcomes[3].wall_ms, 0.0); // Seed 83 is new.

    // A failing run names itself on stderr once per execution, so
    // three identical failing cells must print exactly one report.
    ExperimentCell bad{"not-a-benchmark", "ubench", fastConfig(81),
                       MeasureMode::CpuPrimary, 1};
    testing::internal::CaptureStderr();
    const std::vector<CellOutcome> failed =
        ExperimentBatch(3).runCatching({bad, bad, bad});
    const std::string err = testing::internal::GetCapturedStderr();
    std::size_t reports = 0;
    for (std::size_t at = err.find("run failed"); at != std::string::npos;
         at = err.find("run failed", at + 1))
        ++reports;
    EXPECT_EQ(reports, 1u) << err;
    for (const CellOutcome &outcome : failed) {
        EXPECT_FALSE(outcome.ok);
        EXPECT_EQ(outcome.error, failed[0].error);
    }
    EXPECT_EQ(failed[1].wall_ms, 0.0);
    EXPECT_EQ(failed[2].wall_ms, 0.0);
}

TEST(ExperimentBatch, RepsBelowOneFailsTheCell)
{
    const ExperimentCell good{"", "spmv", fastConfig(81),
                              MeasureMode::GpuOnly, 1};
    ExperimentCell zero = good;
    zero.reps = 0;
    ExperimentCell negative = good;
    negative.reps = -5;
    const std::vector<CellOutcome> outcomes =
        ExperimentBatch(2).runCatching({zero, good, negative});
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[1].ok);
    for (const std::size_t i : {0u, 2u}) {
        EXPECT_FALSE(outcomes[i].ok);
        EXPECT_NE(outcomes[i].error.find("reps must be positive"),
                  std::string::npos)
            << outcomes[i].error;
        EXPECT_EQ(outcomes[i].wall_ms, 0.0);
    }
    EXPECT_NE(outcomes[0].repro.find("reps=0"), std::string::npos)
        << outcomes[0].repro;
    EXPECT_NE(outcomes[2].repro.find("reps=-5"), std::string::npos)
        << outcomes[2].repro;
    EXPECT_THROW(ExperimentBatch(1).run({good, zero}), FatalError);
}

TEST(ExperimentBatch, BasesThatDescribeAlikeDoNotShareRuns)
{
    // SystemConfig::describe() names neither adaptive coalescing nor
    // the QoS throttle policy, so these three bases describe alike.
    // Each cell must still get its own base's run.
    SystemConfig fixed;
    SystemConfig adaptive;
    adaptive.iommu.adaptive_coalescing = true;
    SystemConfig bucket;
    bucket.kernel.qos.policy = ThrottlePolicy::TokenBucket;
    std::vector<ExperimentCell> cells;
    for (const SystemConfig *base : {&fixed, &adaptive, &bucket}) {
        ExperimentConfig config = fastConfig(81);
        config.mitigation.interrupt_coalescing = true;
        config.qos_threshold = 0.05;
        config.base_system = base;
        cells.push_back({"swaptions", "ubench", config,
                         MeasureMode::CpuPrimary, 1});
    }
    ASSERT_EQ(fixed.describe(), adaptive.describe());
    ASSERT_EQ(fixed.describe(), bucket.describe());
    EXPECT_NE(canonicalCellText(cells[0]), canonicalCellText(cells[1]));
    EXPECT_NE(canonicalCellText(cells[0]), canonicalCellText(cells[2]));

    const std::vector<RunResult> together =
        ExperimentBatch(2).run(cells);
    ASSERT_EQ(together.size(), cells.size());
    std::vector<RunResult> serial;
    for (const ExperimentCell &cell : cells) {
        serial.push_back(ExperimentRunner::run(
            cell.cpu_app, cell.gpu_app, cell.config, cell.mode));
        expectIdentical(together[serial.size() - 1], serial.back());
    }
    // The bases really differ, so a shared run would have shown.
    EXPECT_NE(serial[0].total_irqs, serial[1].total_irqs);
    EXPECT_NE(serial[0].cpu_runtime_ms, serial[2].cpu_runtime_ms);
}

TEST(ExperimentBatch, EqualBasesShareOneRun)
{
    // Two base objects with equal contents are one cell: the second
    // cell is served by the first one's run.
    SystemConfig first;
    first.iommu.adaptive_coalescing = true;
    SystemConfig second = first;
    std::vector<ExperimentCell> cells;
    for (const SystemConfig *base : {&first, &second}) {
        ExperimentConfig config = fastConfig(81);
        config.mitigation.interrupt_coalescing = true;
        config.base_system = base;
        cells.push_back({"", "ubench", config, MeasureMode::GpuOnly, 1});
    }
    ASSERT_EQ(canonicalCellText(cells[0]), canonicalCellText(cells[1]));

    const std::vector<CellOutcome> outcomes =
        ExperimentBatch(2).runCatching(cells);
    ASSERT_EQ(outcomes.size(), 2u);
    ASSERT_TRUE(outcomes[0].ok && outcomes[1].ok);
    EXPECT_GT(outcomes[0].wall_ms, 0.0);
    EXPECT_EQ(outcomes[1].wall_ms, 0.0);
    expectIdentical(outcomes[0].result, outcomes[1].result);
}

TEST(ExperimentBatch, DefaultJobsUsesHardwareConcurrency)
{
    EXPECT_GE(ExperimentBatch(0).jobs(), 1);
    EXPECT_GE(ExperimentBatch(-3).jobs(), 1);
    EXPECT_EQ(ExperimentBatch(7).jobs(), 7);
}

TEST(ExperimentBatch, EmptyBatchReturnsEmpty)
{
    EXPECT_TRUE(ExperimentBatch(4).run({}).empty());
}

TEST(ExperimentBatch, WorkerExceptionsPropagate)
{
    std::vector<ExperimentCell> cells = testGrid();
    cells.resize(2);
    cells[1].cpu_app = "not-a-benchmark";
    EXPECT_THROW(ExperimentBatch(2).run(cells), FatalError);
    EXPECT_THROW(ExperimentBatch(1).run(cells), FatalError);
}

TEST(ExperimentBatch, RunCatchingCapturesPerCellOutcomes)
{
    std::vector<ExperimentCell> cells = testGrid();
    cells.resize(3);
    cells[1].cpu_app = "not-a-benchmark";
    const std::vector<CellOutcome> outcomes =
        ExperimentBatch(2).runCatching(cells);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[0].error.empty());
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("not-a-benchmark"),
              std::string::npos)
        << outcomes[1].error;
    // Every failure carries a seed + config repro line, and every
    // outcome a host wall-clock duration.
    EXPECT_NE(outcomes[1].repro.find("seed=82"), std::string::npos)
        << outcomes[1].repro;
    EXPECT_NE(outcomes[1].repro.find("not-a-benchmark"),
              std::string::npos)
        << outcomes[1].repro;
    EXPECT_TRUE(outcomes[0].repro.empty());
    EXPECT_GT(outcomes[0].wall_ms, 0.0);
    EXPECT_TRUE(outcomes[2].ok);
    // Successful outcomes match the serial runner bit-identically.
    expectIdentical(outcomes[0].result,
                    ExperimentRunner::run(cells[0].cpu_app,
                                          cells[0].gpu_app,
                                          cells[0].config,
                                          cells[0].mode));
}

TEST(ExperimentBatch, CancelHeavyQosGridIsBitIdenticalAcrossJobs)
{
    // The event-queue cancel storm: adaptive coalescing re-arms the
    // coalesce timer on every PPR burst, QoS backoff churns governor
    // events, and extra accelerators multiply the streams. Results
    // must stay bit-identical at any job count, with the invariant
    // layer armed throughout.
    SystemConfig base;
    base.iommu.adaptive_coalescing = true;
    std::vector<ExperimentCell> cells;
    for (const std::uint64_t seed : {91u, 92u, 93u}) {
        ExperimentConfig config = fastConfig(seed);
        config.mitigation.interrupt_coalescing = true;
        config.mitigation.coalesce_window = usToTicks(9);
        config.qos_threshold = 0.05;
        config.extra_accelerators = 2;
        config.check_invariants = true;
        config.base_system = &base;
        cells.push_back({"swaptions", "ubench", config,
                         MeasureMode::CpuPrimary, 1});
    }
    const std::vector<RunResult> one = ExperimentBatch(1).run(cells);
    const std::vector<RunResult> four = ExperimentBatch(4).run(cells);
    const std::vector<RunResult> sixteen =
        ExperimentBatch(16).run(cells);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        expectIdentical(one[i], four[i]);
        expectIdentical(one[i], sixteen[i]);
    }
}

/** An empty directory under the test temp dir. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/**
 * Cheap ubench GpuOnly cells for the cache: a reps = 2 cell (seeds
 * 81, 82), a reps = 1 cell sharing its second seed, and a QoS cell.
 * Four distinct runs.
 */
std::vector<ExperimentCell>
cacheCells()
{
    ExperimentConfig config;
    config.seed = 81;
    config.rate_window = msToTicks(2);
    const ExperimentCell pair{"", "ubench", config, MeasureMode::GpuOnly,
                              2};
    ExperimentCell second = pair;
    second.reps = 1;
    second.config.seed = 82;
    ExperimentCell qos = pair;
    qos.config.qos_threshold = 0.05;
    return {pair, second, qos};
}

/** Each cell's outcome as record bytes: equal bytes, equal results. */
std::vector<std::string>
recordBytes(const std::vector<ExperimentCell> &cells,
            const std::vector<CellOutcome> &outcomes)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
        out.push_back(campaign::ResultCache::encode(
            canonicalCellText(cells[i]), outcomes[i]));
    }
    return out;
}

TEST(ExperimentBatch, WarmCacheServesByteEqualResults)
{
    const std::vector<ExperimentCell> cells = cacheCells();
    const campaign::ResultCache cache(freshDir("batch_warm"));
    const ExperimentBatch batch(2, &cache);
    BatchTally cold_tally;
    const std::vector<CellOutcome> cold =
        batch.runCatching(cells, &cold_tally);
    EXPECT_EQ(cold_tally.executed, 4u);
    EXPECT_EQ(cold_tally.cached, 0u);

    BatchTally warm_tally;
    const std::vector<CellOutcome> warm =
        batch.runCatching(cells, &warm_tally);
    EXPECT_EQ(warm_tally.executed, 0u);
    EXPECT_EQ(warm_tally.cached, 4u);
    EXPECT_EQ(warm_tally.replaced, 0u);
    for (const CellOutcome &outcome : warm)
        EXPECT_EQ(outcome.wall_ms, 0.0);

    const std::vector<std::string> uncached =
        recordBytes(cells, ExperimentBatch(2).runCatching(cells));
    EXPECT_EQ(recordBytes(cells, cold), uncached);
    EXPECT_EQ(recordBytes(cells, warm), uncached);
}

TEST(ExperimentBatch, CacheReRunsDamagedRecords)
{
    const std::vector<ExperimentCell> cells = cacheCells();
    const std::string dir = freshDir("batch_damage");
    const campaign::ResultCache cache(dir);
    const ExperimentBatch batch(2, &cache);
    const std::vector<std::string> reference =
        recordBytes(cells, batch.runCatching(cells));

    std::vector<std::string> records;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        records.push_back(entry.path().string());
    std::sort(records.begin(), records.end());
    ASSERT_EQ(records.size(), 4u);
    // One record truncated, one with a bit flipped.
    {
        const std::string blob = snap::readFile(records[0]);
        std::ofstream out(records[0], std::ios::binary | std::ios::trunc);
        out << blob.substr(0, 10);
    }
    {
        std::string blob = snap::readFile(records[2]);
        blob[blob.size() / 2] ^= 0x01;
        std::ofstream out(records[2], std::ios::binary | std::ios::trunc);
        out << blob;
    }

    BatchTally tally;
    EXPECT_EQ(recordBytes(cells, batch.runCatching(cells, &tally)),
              reference);
    EXPECT_EQ(tally.executed, 2u);
    EXPECT_EQ(tally.replaced, 2u);
    EXPECT_EQ(tally.cached, 2u);

    // The re-runs overwrote the damaged records.
    EXPECT_EQ(recordBytes(cells, batch.runCatching(cells, &tally)),
              reference);
    EXPECT_EQ(tally.executed, 0u);
    EXPECT_EQ(tally.cached, 4u);
}

TEST(ExperimentBatch, ShardsPartitionAndResumeExecutesOnlyMissing)
{
    // Six single-run cells, sharded two ways as hiss_repro --shard
    // does: shard 0 fills the cache, then an unsharded run executes
    // exactly shard 1's cells and serves the rest.
    std::vector<ExperimentCell> cells;
    for (std::uint64_t seed = 81; seed < 87; ++seed) {
        ExperimentCell cell = cacheCells()[1];
        cell.config.seed = seed;
        cells.push_back(cell);
    }
    std::vector<ExperimentCell> shards[2];
    for (const ExperimentCell &cell : cells) {
        const int in0 = inShard(cell, 0, 2) ? 1 : 0;
        const int in1 = inShard(cell, 1, 2) ? 1 : 0;
        ASSERT_EQ(in0 + in1, 1) << cellRepro(cell);
        shards[in1].push_back(cell);
    }
    ASSERT_FALSE(shards[0].empty());
    ASSERT_FALSE(shards[1].empty());

    const campaign::ResultCache cache(freshDir("batch_shard"));
    const ExperimentBatch batch(2, &cache);
    BatchTally tally;
    batch.run(shards[0], &tally);
    EXPECT_EQ(tally.executed, shards[0].size());
    EXPECT_EQ(tally.cached, 0u);

    const std::vector<RunResult> resumed = batch.run(cells, &tally);
    EXPECT_EQ(tally.executed, shards[1].size());
    EXPECT_EQ(tally.cached, shards[0].size());
    EXPECT_EQ(tally.replaced, 0u);

    const std::vector<RunResult> again = batch.run(cells, &tally);
    EXPECT_EQ(tally.executed, 0u);
    EXPECT_EQ(tally.cached, cells.size());
    const std::vector<RunResult> uncached = ExperimentBatch(2).run(cells);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        expectIdentical(resumed[i], uncached[i]);
        expectIdentical(again[i], uncached[i]);
    }
}

TEST(ExperimentBatch, MoreRepsExecuteOnlyTheNewSeeds)
{
    ExperimentCell cell = cacheCells().front();
    const campaign::ResultCache cache(freshDir("batch_reps"));
    const ExperimentBatch batch(2, &cache);
    BatchTally tally;
    batch.run({cell}, &tally);
    EXPECT_EQ(tally.executed, 2u);

    cell.reps = 3;
    const RunResult three = batch.run({cell}, &tally).front();
    EXPECT_EQ(tally.executed, 1u);
    EXPECT_EQ(tally.cached, 2u);
    expectIdentical(three, serialReference(cell));
}

TEST(ExperimentBatch, FailedRunsAreNotCached)
{
    // A failing run names itself on stderr each time it runs: it is
    // not stored, so every call runs it again and fails again.
    const ExperimentCell bad{"not-a-benchmark", "ubench", fastConfig(81),
                             MeasureMode::CpuPrimary, 1};
    const campaign::ResultCache cache(freshDir("batch_fail"));
    const ExperimentBatch batch(1, &cache);
    for (int call = 0; call < 2; ++call) {
        BatchTally tally;
        testing::internal::CaptureStderr();
        const CellOutcome outcome =
            batch.runCatching({bad}, &tally).front();
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_FALSE(outcome.ok);
        EXPECT_NE(err.find("run failed"), std::string::npos) << err;
        EXPECT_EQ(tally.executed, 1u);
        EXPECT_EQ(tally.cached, 0u);
    }
    EXPECT_EQ(cache.lookup(cellKeyHex(bad), canonicalCellText(bad)).status,
              campaign::LookupStatus::Miss);
    EXPECT_THROW(batch.run({bad}), FatalError);
}

TEST(ExperimentBatch, StoreFailureIsACacheErrorNotARunFailure)
{
    // A directory where the record goes: the run succeeds, its store
    // cannot rename over the directory, and the call throws that.
    const ExperimentCell cell = cacheCells()[1];
    const campaign::ResultCache cache(freshDir("batch_store"));
    std::filesystem::create_directory(cache.recordPath(cellKeyHex(cell)));
    testing::internal::CaptureStderr();
    EXPECT_THROW(ExperimentBatch(1, &cache).runCatching({cell}),
                 snap::SnapshotError);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("run failed"), std::string::npos) << err;
}

} // namespace
} // namespace hiss
