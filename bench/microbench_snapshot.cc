/**
 * @file
 * Snapshot-engine microbenchmarks: what does a save cost, and what
 * does a restore cost?
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "core/hiss.h"

namespace {

using namespace hiss;

/** The save/restore subject: CPU app + demand-paging GPU, 5 ms in. */
std::unique_ptr<HeteroSystem>
buildSubject()
{
    SystemConfig config;
    config.seed = 11;
    auto sys = std::make_unique<HeteroSystem>(config);
    CpuAppParams app_params = parsec::params("x264");
    app_params.iterations = 1000;
    sys->addCpuApp(app_params).start();
    sys->launchGpu(gpu_suite::params("sssp"), true, true);
    return sys;
}

void
SnapshotSave(benchmark::State &state)
{
    auto sys = buildSubject();
    sys->runUntil(msToTicks(5));
    std::size_t bytes = 0;
    for (auto _ : state) {
        const std::string blob = sys->snapshotBytes();
        bytes = blob.size();
        benchmark::DoNotOptimize(blob.data());
    }
    state.counters["snapshot_bytes"] =
        benchmark::Counter(static_cast<double>(bytes));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(SnapshotSave)->Unit(benchmark::kMillisecond);

void
SnapshotRestore(benchmark::State &state)
{
    auto warm = buildSubject();
    warm->runUntil(msToTicks(5));
    const std::string blob = warm->snapshotBytes();
    auto target = buildSubject();
    for (auto _ : state) {
        target->restoreSnapshotBytes(blob);
        benchmark::DoNotOptimize(target->now());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(SnapshotRestore)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
