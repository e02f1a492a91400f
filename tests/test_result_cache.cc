/**
 * @file
 * Tests for cell keys and the on-disk result cache.
 *
 * The load-bearing properties:
 *  - the cell key is stable for equal cells and sensitive to every
 *    result-determining field;
 *  - the result cache detects truncation and bit damage (checksum),
 *    key aliasing and records of another build, and never serves
 *    them;
 *  - concurrent stores of one record, from threads or processes,
 *    all succeed and leave a whole record.
 * ExperimentBatch's use of the cache is tested in
 * test_experiment_batch.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/result_cache.h"
#include "core/cell_key.h"
#include "sim/logging.h"
#include "snap/snap.h"

namespace hiss {
namespace {

using campaign::Lookup;
using campaign::LookupStatus;
using campaign::ResultCache;

ExperimentCell
fastCell(std::uint64_t seed)
{
    ExperimentCell cell;
    cell.cpu_app = "";
    cell.gpu_app = "ubench";
    cell.mode = MeasureMode::GpuOnly;
    cell.config.seed = seed;
    cell.config.rate_window = msToTicks(2);
    return cell;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** An empty directory under the test temp dir. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(CellKey, StableForEqualCells)
{
    EXPECT_EQ(cellKey(fastCell(81)), cellKey(fastCell(81)));
    EXPECT_EQ(canonicalCellText(fastCell(81)),
              canonicalCellText(fastCell(81)));
    EXPECT_EQ(cellKeyHex(fastCell(81)).size(), 16u);
}

TEST(CellKey, SensitiveToEveryResultDeterminingField)
{
    const std::uint64_t base = cellKey(fastCell(81));
    {
        ExperimentCell cell = fastCell(82);
        EXPECT_NE(cellKey(cell), base) << "seed";
    }
    {
        ExperimentCell cell = fastCell(81);
        cell.config.qos_threshold = 0.01;
        EXPECT_NE(cellKey(cell), base) << "qos";
    }
    {
        ExperimentCell cell = fastCell(81);
        cell.config.mitigation.steer_to_single_core = true;
        EXPECT_NE(cellKey(cell), base) << "mitigation";
    }
    {
        ExperimentCell cell = fastCell(81);
        cell.config.fault.irq_drop_prob = 0.5;
        EXPECT_NE(cellKey(cell), base) << "fault plan";
    }
    {
        ExperimentCell cell = fastCell(81);
        cell.reps = 2;
        EXPECT_NE(cellKey(cell), base) << "reps";
    }
    {
        ExperimentCell cell = fastCell(81);
        cell.gpu_app = "spmv";
        EXPECT_NE(cellKey(cell), base) << "workload";
    }

    // A base system keys by every field, not by describe(): one
    // perturbation per params struct, plus fields describe() omits.
    const SystemConfig table2;
    ExperimentCell on_default = fastCell(81);
    on_default.config.base_system = &table2;
    const std::uint64_t default_base = cellKey(on_default);
    const struct
    {
        const char *field;
        void (*perturb)(SystemConfig &);
    } kBaseFields[] = {
        {"num_cores", [](SystemConfig &s) { s.num_cores = 2; }},
        {"core.freq_ghz", [](SystemConfig &s) { s.core.freq_ghz = 3.0; }},
        {"core.l1d.line_bytes",
         [](SystemConfig &s) { s.core.l1d.line_bytes = 128; }},
        {"core.bp.history_bits",
         [](SystemConfig &s) { s.core.bp.history_bits = 8; }},
        {"kernel.housekeeping_period",
         [](SystemConfig &s) { s.kernel.housekeeping_period = 0; }},
        {"kernel.sched.timeslice",
         [](SystemConfig &s) { s.kernel.sched.timeslice = msToTicks(2); }},
        {"kernel.qos.policy",
         [](SystemConfig &s) {
             s.kernel.qos.policy = ThrottlePolicy::TokenBucket;
         }},
        {"kernel.service_costs.jitter",
         [](SystemConfig &s) { s.kernel.service_costs.jitter = 0.3; }},
        {"gpu.max_outstanding",
         [](SystemConfig &s) { s.gpu.max_outstanding = 8; }},
        {"iommu.adaptive_coalescing",
         [](SystemConfig &s) { s.iommu.adaptive_coalescing = true; }},
        {"ssr_driver.bottom_half_per_entry",
         [](SystemConfig &s) { s.ssr_driver.bottom_half_per_entry = 300; }},
        {"seed", [](SystemConfig &s) { s.seed = 2; }},
        {"fault.irq_drop_prob",
         [](SystemConfig &s) { s.fault.irq_drop_prob = 0.5; }},
    };
    for (const auto &field : kBaseFields) {
        SystemConfig perturbed;
        field.perturb(perturbed);
        ExperimentCell cell = fastCell(81);
        cell.config.base_system = &perturbed;
        EXPECT_NE(cellKey(cell), default_base) << "base." << field.field;
    }
}

/**
 * Cells that differ from a reference in one field a figure varies
 * (mode, coalescing window, run window, cap, base system) print
 * distinct repro lines, even with the trailing key cut off.
 */
TEST(CellKey, ReproLinesTellCellsApart)
{
    SystemConfig bucket;
    bucket.kernel.qos.policy = ThrottlePolicy::TokenBucket;
    SystemConfig adaptive;
    adaptive.iommu.adaptive_coalescing = true;
    ExperimentCell ref;
    ref.cpu_app = "facesim";
    ref.gpu_app = "sssp";
    ref.mode = MeasureMode::CpuPrimary;
    ref.config.mitigation.interrupt_coalescing = true;
    std::vector<ExperimentCell> cells(7, ref);
    cells[1].mode = MeasureMode::GpuPrimary;
    cells[2].config.mitigation.coalesce_window = usToTicks(25);
    cells[3].config.rate_window = msToTicks(30);
    cells[4].config.max_sim_time = msToTicks(300);
    cells[5].config.base_system = &bucket;
    cells[6].config.base_system = &adaptive;

    std::set<std::string> lines;
    std::set<std::string> without_key;
    for (const ExperimentCell &cell : cells) {
        const std::string line = cellRepro(cell);
        lines.insert(line);
        const std::size_t at = line.rfind(" key=");
        ASSERT_NE(at, std::string::npos) << line;
        EXPECT_EQ(line.substr(at + 5), cellKeyHex(cell)) << line;
        without_key.insert(line.substr(0, at));
    }
    EXPECT_EQ(lines.size(), cells.size());
    EXPECT_EQ(without_key.size(), cells.size());
}

TEST(ResultCacheTest, RoundTripsSuccessAndFailure)
{
    ResultCache cache(freshDir("cache_rt"));

    CellOutcome ok;
    ok.ok = true;
    ok.result.elapsed_ms = 2.5;
    ok.result.accel_ssr_rate = 125000.5;
    ok.result.fault_latency_mean_us = 69.25;
    ok.result.fault_latency_sd_us = 88.125;
    ok.result.total_irqs = 1234;
    ok.result.ssr_irqs_per_core = {3, 1, 4, 1};
    cache.store("00000000000000aa", "canon-a", ok);

    CellOutcome failed;
    failed.ok = false;
    failed.error = "synthetic failure";
    failed.repro = "seed=81 gpu='ubench'";
    cache.store("00000000000000bb", "canon-b", failed);

    const Lookup got_ok = cache.lookup("00000000000000aa", "canon-a");
    ASSERT_EQ(got_ok.status, LookupStatus::Hit);
    EXPECT_TRUE(got_ok.outcome.ok);
    EXPECT_EQ(got_ok.outcome.result.elapsed_ms, 2.5);
    EXPECT_EQ(got_ok.outcome.result.accel_ssr_rate, 125000.5);
    EXPECT_EQ(got_ok.outcome.result.fault_latency_mean_us, 69.25);
    EXPECT_EQ(got_ok.outcome.result.fault_latency_sd_us, 88.125);
    EXPECT_EQ(got_ok.outcome.result.total_irqs, 1234u);
    EXPECT_EQ(got_ok.outcome.result.ssr_irqs_per_core,
              (std::vector<std::uint64_t>{3, 1, 4, 1}));

    const Lookup got_failed =
        cache.lookup("00000000000000bb", "canon-b");
    ASSERT_EQ(got_failed.status, LookupStatus::Hit);
    EXPECT_FALSE(got_failed.outcome.ok);
    EXPECT_EQ(got_failed.outcome.error, "synthetic failure");
    EXPECT_EQ(got_failed.outcome.repro, "seed=81 gpu='ubench'");

    EXPECT_EQ(cache.lookup("00000000000000cc", "canon-c").status,
              LookupStatus::Miss);
}

TEST(ResultCacheTest, DetectsTruncationBitFlipAndAliasing)
{
    ResultCache cache(freshDir("cache_dmg"));
    CellOutcome ok;
    ok.ok = true;
    ok.result.elapsed_ms = 1.0;
    cache.store("00000000000000aa", "canon-a", ok);
    const std::string path = cache.recordPath("00000000000000aa");
    const std::string blob = readAll(path);

    // Truncation: drop the tail.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << blob.substr(0, blob.size() / 2);
    }
    Lookup damaged = cache.lookup("00000000000000aa", "canon-a");
    EXPECT_EQ(damaged.status, LookupStatus::Corrupt);
    EXPECT_FALSE(damaged.detail.empty());

    // Bit flip in the payload: frame checksum must catch it.
    {
        std::string flipped = blob;
        flipped[flipped.size() - 3] ^= 0x40;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << flipped;
    }
    damaged = cache.lookup("00000000000000aa", "canon-a");
    EXPECT_EQ(damaged.status, LookupStatus::Corrupt);

    // Aliasing: a structurally valid record whose canonical text is
    // not this cell's (key collision or stale key format).
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << blob;
    }
    damaged = cache.lookup("00000000000000aa", "other-canonical");
    EXPECT_EQ(damaged.status, LookupStatus::Corrupt);
    EXPECT_NE(damaged.detail.find("mismatch"), std::string::npos);

    // An older record version: the version-1 layout, before
    // accel_ssr_rate and the fault-latency fields, is not misread.
    snap::Writer v1;
    v1.section("campaign.record");
    v1.u32(1);
    v1.str("canon-a");
    v1.b(true);
    v1.b(false); // hit_time_cap
    for (int i = 0; i < 8; ++i) // elapsed_ms ... ssr_cpu_fraction
        v1.f64(1.0);
    for (int i = 0; i < 6; ++i) // total_irqs ... aborted_wavefronts
        v1.u64(1);
    v1.u64(0); // ssr_irqs_per_core: empty
    snap::writeFile(path, snap::frame(v1.buffer()));
    damaged = cache.lookup("00000000000000aa", "canon-a");
    EXPECT_EQ(damaged.status, LookupStatus::Corrupt);
    EXPECT_NE(damaged.detail.find("version 1"), std::string::npos)
        << damaged.detail;
}

TEST(ResultCacheTest, RecordsOfAnotherBuildAreReRunAndReplaced)
{
    const std::string dir = freshDir("cache_build");
    const ExperimentCell cell = fastCell(81);
    const std::string key = cellKeyHex(cell);
    const std::string canonical = canonicalCellText(cell);

    // With no fingerprint the record is exactly encode()'s bytes.
    const ResultCache plain(dir);
    const std::vector<CellOutcome> first =
        ExperimentBatch(1, &plain).runCatching({cell});
    ASSERT_TRUE(first[0].ok) << first[0].error;
    EXPECT_EQ(snap::readFile(plain.recordPath(key)),
              ResultCache::encode(canonical, first[0]));

    const ResultCache a(dir, "a");
    const ResultCache b(dir, "b");
    EXPECT_EQ(a.lookup(key, canonical).status, LookupStatus::Corrupt);
    a.store(key, canonical, first[0]);
    EXPECT_EQ(a.lookup(key, canonical).status, LookupStatus::Hit);
    EXPECT_EQ(plain.lookup(key, canonical).status, LookupStatus::Corrupt);

    const Lookup other = b.lookup(key, canonical);
    EXPECT_EQ(other.status, LookupStatus::Corrupt);
    EXPECT_NE(other.detail.find("another build"), std::string::npos)
        << other.detail;

    // A batch over b re-runs the cell and overwrites a's record.
    BatchTally tally;
    const std::vector<CellOutcome> again =
        ExperimentBatch(1, &b).runCatching({cell}, &tally);
    ASSERT_TRUE(again[0].ok) << again[0].error;
    EXPECT_GT(again[0].wall_ms, 0.0);
    EXPECT_EQ(tally.executed, 1u);
    EXPECT_EQ(tally.replaced, 1u);
    EXPECT_EQ(b.lookup(key, canonical).status, LookupStatus::Hit);
    EXPECT_EQ(a.lookup(key, canonical).status, LookupStatus::Corrupt);
    EXPECT_EQ(ResultCache::encode(canonical, again[0]),
              ResultCache::encode(canonical, first[0]));
}

TEST(ResultCacheTest, ConcurrentStoresOfOneKeyAllSucceed)
{
    const ResultCache cache(freshDir("cache_race"));
    CellOutcome ok;
    ok.ok = true;
    ok.result.elapsed_ms = 3.0;
    ok.result.ssr_irqs_per_core.assign(512, 7); // A 4 KiB record.
    std::atomic<int> failures{0};
    {
        std::vector<std::jthread> writers;
        for (int t = 0; t < 4; ++t)
            writers.emplace_back([&cache, &ok, &failures] {
                for (int i = 0; i < 500; ++i) {
                    try {
                        cache.store("00000000000000aa", "canon-a", ok);
                    } catch (const snap::SnapshotError &) {
                        ++failures;
                    }
                }
            });
    }
    EXPECT_EQ(failures.load(), 0);
    const Lookup found = cache.lookup("00000000000000aa", "canon-a");
    ASSERT_EQ(found.status, LookupStatus::Hit) << found.detail;
    EXPECT_EQ(found.outcome.result.ssr_irqs_per_core,
              ok.result.ssr_irqs_per_core);
}

} // namespace
} // namespace hiss
