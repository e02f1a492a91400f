/**
 * @file
 * Result-cache microbenchmarks.
 *
 * Three questions: what does the per-run bookkeeping (key + framed
 * record encode/decode) cost, what does a cold grid cost end to end
 * through a cached ExperimentBatch, and what does a warm cache buy?
 * The last is the headline — CampaignResumeSpeedup runs the same grid
 * cold (empty cache) and resumed (warm cache) and records the
 * wall-clock ratio as a counter, which tools/ci.sh bench gates at
 * >= 5x: a resume that re-simulates anything it already has defeats
 * the cache's point.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "core/hiss.h"

namespace {

using namespace hiss;
using campaign::ResultCache;

std::string
cacheDir()
{
    return (std::filesystem::temp_directory_path() / "hiss_bench_campaign")
        .string();
}

/** The benchmark grid: 8 GPU-only ubench cells (seeds 11-14 x QoS 0
 *  and 0.05), 4 ms windows. */
std::vector<ExperimentCell>
benchGrid()
{
    std::vector<ExperimentCell> cells;
    for (const double qos : {0.0, 0.05}) {
        for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
            ExperimentCell cell;
            cell.gpu_app = "ubench";
            cell.mode = MeasureMode::GpuOnly;
            cell.config.qos_threshold = qos;
            cell.config.seed = seed;
            cell.config.rate_window = msToTicks(4.0);
            cells.push_back(cell);
        }
    }
    return cells;
}

void
CampaignCellKey(benchmark::State &state)
{
    const std::vector<ExperimentCell> cells = benchGrid();
    std::uint64_t digest = 0;
    for (auto _ : state) {
        for (const ExperimentCell &cell : cells)
            digest ^= cellKey(cell);
        benchmark::DoNotOptimize(digest);
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<long>(cells.size()));
}
BENCHMARK(CampaignCellKey)->Unit(benchmark::kMicrosecond);

void
CampaignRecordRoundTrip(benchmark::State &state)
{
    CellOutcome outcome;
    outcome.ok = true;
    outcome.result.elapsed_ms = 4.0;
    outcome.result.ssr_irqs_per_core = {1, 2, 3, 4};
    const std::string canonical = canonicalCellText(benchGrid()[0]);
    for (auto _ : state) {
        const std::string blob =
            ResultCache::encode(canonical, outcome);
        std::string stored;
        const CellOutcome back = ResultCache::decode(blob, stored);
        benchmark::DoNotOptimize(back.result.elapsed_ms);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(CampaignRecordRoundTrip)->Unit(benchmark::kMicrosecond);

/** Seconds to run the grid on one worker through the cache, emptied
 *  first when @p cold. */
double
runGrid(bool cold)
{
    if (cold)
        std::filesystem::remove_all(cacheDir());
    const ResultCache cache(cacheDir());
    const auto start = std::chrono::steady_clock::now();
    const std::vector<RunResult> results =
        ExperimentBatch(1, &cache).run(benchGrid());
    benchmark::DoNotOptimize(results.data());
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
CampaignColdGrid(benchmark::State &state)
{
    for (auto _ : state)
        runGrid(true);
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(CampaignColdGrid)->Unit(benchmark::kMillisecond);

void
CampaignWarmResume(benchmark::State &state)
{
    runGrid(true); // populate the cache once
    for (auto _ : state)
        runGrid(false);
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(CampaignWarmResume)->Unit(benchmark::kMillisecond);

/** Cold/resume wall-clock ratio as a counter, like
 *  SnapshotSweepSpeedup: the committed baseline carries the speedup
 *  itself and the CI bench gate enforces >= 5x. */
void
CampaignResumeSpeedup(benchmark::State &state)
{
    double cold = 0.0;
    double resumed = 0.0;
    for (auto _ : state) {
        cold += runGrid(true);
        resumed += runGrid(false);
    }
    state.counters["speedup"] =
        benchmark::Counter(resumed > 0.0 ? cold / resumed : 0.0);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(CampaignResumeSpeedup)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

} // namespace

BENCHMARK_MAIN();
