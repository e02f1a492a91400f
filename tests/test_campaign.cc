/**
 * @file
 * Tests for the crash-resumable campaign engine.
 *
 * The load-bearing properties:
 *  - the cell key is stable for equal cells and sensitive to every
 *    result-determining field;
 *  - the result cache detects truncation and bit damage (checksum)
 *    and the engine re-runs exactly the damaged cells;
 *  - a resumed campaign's merged CSV is byte-identical to an
 *    uninterrupted one (the crash-drill invariant, with the crash
 *    itself exercised by tools/ci.sh campaign);
 *  - failures settle as typed, reproducible records instead of
 *    vanishing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "core/cell_key.h"
#include "sim/logging.h"
#include "snap/snap.h"

namespace hiss {
namespace {

using campaign::CampaignEngine;
using campaign::CampaignOptions;
using campaign::CampaignReport;
using campaign::CampaignStatus;
using campaign::GridSpec;
using campaign::Lookup;
using campaign::LookupStatus;
using campaign::Manifest;
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

/** A 4-cell grid cheap enough to run many times per test. */
GridSpec
fastGrid()
{
    GridSpec spec;
    spec.name = "unit";
    spec.gpu_apps = {"ubench"};
    spec.seeds = {81, 82};
    spec.qos_thresholds = {0.0, 0.05};
    spec.duration_ms = 2.0;
    return spec;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::remove((dir + "/manifest.jsonl").c_str());
    for (const std::string &key : ResultCache(dir + "/cache").listKeys())
        std::remove((dir + "/cache/" + key + ".rec").c_str());
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
}

TEST(ResultCacheTest, RoundTripsSuccessAndFailure)
{
    ResultCache cache(freshDir("campaign_rt") + "/cache");

    CellOutcome ok;
    ok.ok = true;
    ok.result.elapsed_ms = 2.5;
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
    ResultCache cache(freshDir("campaign_dmg") + "/cache");
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
}

TEST(ManifestTest, RoundTripsAndRebuildsIdenticalCells)
{
    const std::string dir = freshDir("campaign_manifest");
    const GridSpec spec = fastGrid();
    CampaignEngine(dir).build(spec);

    const Manifest manifest = campaign::readManifest(dir);
    EXPECT_EQ(manifest.name, "unit");
    ASSERT_EQ(manifest.cells.size(), spec.buildCells().size());
    const std::vector<ExperimentCell> cells =
        campaign::rebuildCells(manifest);
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(cellKeyHex(cells[i]), manifest.cells[i].key_hex);
}

TEST(ManifestTest, RejectsUnknownFormatAndTruncation)
{
    const std::string dir = freshDir("campaign_badmanifest");
    CampaignEngine(dir).build(fastGrid());
    const std::string path = dir + "/manifest.jsonl";
    const std::string text = readAll(path);

    {
        const std::string format =
            "\"format\":" + std::to_string(campaign::kManifestFormat);
        std::string bumped = text;
        const std::size_t at = bumped.find(format);
        ASSERT_NE(at, std::string::npos);
        bumped.replace(at, format.size(),
                       "\"format\":"
                           + std::to_string(campaign::kManifestFormat + 1));
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bumped;
    }
    EXPECT_THROW(campaign::readManifest(dir), FatalError);

    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text.substr(0, text.size() - 20);
    }
    EXPECT_THROW(campaign::readManifest(dir), FatalError);
}

TEST(CampaignTest, ShardsPartitionAndResumeExecutesOnlyMissing)
{
    const std::string dir = freshDir("campaign_shard");
    const CampaignEngine engine(dir);
    engine.build(fastGrid());

    CampaignOptions shard0;
    shard0.jobs = 2;
    shard0.shard_index = 0;
    shard0.shard_count = 2;
    const CampaignReport r0 = engine.run(shard0);
    EXPECT_EQ(r0.total, 4u);
    EXPECT_EQ(r0.owned, 2u);
    EXPECT_EQ(r0.executed, 2u);
    EXPECT_EQ(r0.failures, 0u);

    CampaignStatus mid = engine.status();
    EXPECT_EQ(mid.cached_ok, 2u);
    EXPECT_EQ(mid.missing, 2u);
    EXPECT_FALSE(mid.complete());

    CampaignOptions shard1 = shard0;
    shard1.shard_index = 1;
    const CampaignReport r1 = engine.run(shard1);
    EXPECT_EQ(r1.owned, 2u);
    EXPECT_EQ(r1.executed, 2u);
    EXPECT_TRUE(engine.status().complete());

    // Resume: everything is cached, nothing executes.
    const CampaignReport again = engine.run(shard0);
    EXPECT_EQ(again.cached_hits, 2u);
    EXPECT_EQ(again.executed, 0u);
}

TEST(CampaignTest, DamagedRecordsAreReRunAndMergeIsByteIdentical)
{
    const std::string dir = freshDir("campaign_damage");
    const CampaignEngine engine(dir);
    engine.build(fastGrid());

    CampaignOptions all;
    all.jobs = 2;
    ASSERT_EQ(engine.run(all).failures, 0u);
    const std::string csv_path = dir + "/merged.csv";
    ASSERT_EQ(engine.merge(csv_path), 4u);
    const std::string reference = readAll(csv_path);

    // Damage two of the four records: one truncated, one bit-flipped.
    const ResultCache cache(engine.cacheDir());
    const std::vector<std::string> keys = cache.listKeys();
    ASSERT_EQ(keys.size(), 4u);
    {
        const std::string path = cache.recordPath(keys[0]);
        const std::string blob = readAll(path);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << blob.substr(0, 10);
    }
    {
        const std::string path = cache.recordPath(keys[2]);
        std::string blob = readAll(path);
        blob[blob.size() / 2] ^= 0x01;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << blob;
    }
    const CampaignStatus damaged = engine.status();
    EXPECT_EQ(damaged.corrupt, 2u);
    EXPECT_EQ(damaged.cached_ok, 2u);

    // Resume re-runs exactly the damaged cells...
    const CampaignReport resume = engine.run(all);
    EXPECT_EQ(resume.corrupt_rerun, 2u);
    EXPECT_EQ(resume.executed, 2u);
    EXPECT_EQ(resume.cached_hits, 2u);

    // ...and the merged CSV is byte-identical to the undamaged run.
    ASSERT_EQ(engine.merge(csv_path), 4u);
    EXPECT_EQ(readAll(csv_path), reference);
}

TEST(CampaignTest, FailuresSettleAsTypedReproducibleRecords)
{
    const std::string dir = freshDir("campaign_fail");
    GridSpec spec = fastGrid();
    spec.seeds = {81};
    // Out of (0, 1]: the QoS governor refuses it when the cell runs.
    spec.qos_thresholds = {1.5};
    const CampaignEngine engine(dir);
    engine.build(spec);

    CampaignOptions options;
    options.jobs = 1;
    options.max_attempts = 2;
    const CampaignReport report = engine.run(options);
    EXPECT_EQ(report.owned, 1u);
    EXPECT_EQ(report.failures, 1u);

    // The failure is cached with a reason and a repro line, so a
    // resume does not loop on it and the merge stays complete.
    const Manifest manifest = campaign::readManifest(dir);
    const std::vector<ExperimentCell> cells =
        campaign::rebuildCells(manifest);
    const ResultCache cache(engine.cacheDir());
    const Lookup found = cache.lookup(manifest.cells[0].key_hex,
                                      canonicalCellText(cells[0]));
    ASSERT_EQ(found.status, LookupStatus::Hit);
    EXPECT_FALSE(found.outcome.ok);
    EXPECT_NE(found.outcome.error.find("QosParams"), std::string::npos)
        << found.outcome.error;
    EXPECT_NE(found.outcome.repro.find("seed=81"), std::string::npos)
        << found.outcome.repro;

    const CampaignReport resume = engine.run(options);
    EXPECT_EQ(resume.executed, 0u);
    EXPECT_EQ(resume.failures, 1u);

    // retry_failed re-runs it (and it fails again, deterministically).
    CampaignOptions retry = options;
    retry.retry_failed = true;
    const CampaignReport retried = engine.run(retry);
    EXPECT_EQ(retried.executed, 1u);
    EXPECT_EQ(retried.failures, 1u);

    // The merged CSV carries the failure row rather than omitting it.
    const std::string csv_path = dir + "/merged.csv";
    EXPECT_EQ(engine.merge(csv_path), 1u);
    EXPECT_NE(readAll(csv_path).find("QosParams"), std::string::npos);
}

TEST(CampaignTest, BuildRejectsUnknownAppNames)
{
    GridSpec cpu = fastGrid();
    cpu.cpu_apps = {"nosuchapp"};
    EXPECT_THROW(cpu.buildCells(), FatalError);

    // The build fails before it writes a manifest for run to fail on.
    const std::string dir = freshDir("campaign_unknown_app");
    GridSpec gpu = fastGrid();
    gpu.gpu_apps = {"ubench", "nosuchgpu"};
    EXPECT_THROW(CampaignEngine(dir).build(gpu), FatalError);
    EXPECT_FALSE(std::ifstream(dir + "/manifest.jsonl").good());
}

TEST(CampaignTest, MergeRefusesIncompleteCampaigns)
{
    const std::string dir = freshDir("campaign_incomplete");
    const CampaignEngine engine(dir);
    engine.build(fastGrid());
    CampaignOptions shard0;
    shard0.jobs = 1;
    shard0.shard_index = 0;
    shard0.shard_count = 2;
    engine.run(shard0);
    EXPECT_THROW(engine.merge(dir + "/merged.csv"), FatalError);
}

} // namespace
} // namespace hiss
