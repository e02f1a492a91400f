#include "campaign/campaign.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "sim/logging.h"
#include "snap/snap.h"

namespace hiss {
namespace campaign {
namespace {

const char *
modeName(MeasureMode mode)
{
    switch (mode) {
      case MeasureMode::CpuPrimary: return "cpu-primary";
      case MeasureMode::GpuPrimary: return "gpu-primary";
      case MeasureMode::GpuOnly: return "gpu-only";
      case MeasureMode::CpuOnly: return "cpu-only";
    }
    return "?";
}

/** Quote a CSV field only when it needs it. */
std::string
csvField(const std::string &value)
{
    if (value.find_first_of(",\"\n") == std::string::npos)
        return value;
    std::string out = "\"";
    for (const char c : value) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

std::string
f64Field(double value)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
u64Field(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** A cell this shard still has to run. */
struct PendingCell
{
    std::size_t index;
    std::string key_hex;
    std::string canonical;
};

} // namespace

CampaignEngine::CampaignEngine(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        fatal("campaign: empty campaign directory");
}

void
CampaignEngine::build(const GridSpec &spec) const
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("campaign: cannot create '%s': %s", dir_.c_str(),
              ec.message().c_str());
    writeManifest(dir_, spec);
}

CampaignReport
CampaignEngine::run(const CampaignOptions &options) const
{
    if (options.shard_count < 1)
        fatal("campaign: shard count must be >= 1 (got %d)",
              options.shard_count);
    if (options.shard_index < 0
        || options.shard_index >= options.shard_count)
        fatal("campaign: shard index %d out of range [0, %d)",
              options.shard_index, options.shard_count);

    const Manifest manifest = readManifest(dir_);
    const std::vector<ExperimentCell> cells = rebuildCells(manifest);
    const ResultCache cache(cacheDir());

    CampaignReport report;
    report.total = cells.size();

    // Scan this shard's share of the cache: what is already settled,
    // what is damaged, what has never run.
    std::vector<PendingCell> pending;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (static_cast<int>(i % options.shard_count)
            != options.shard_index)
            continue;
        ++report.owned;
        PendingCell cell{i, manifest.cells[i].key_hex,
                         canonicalCellText(cells[i])};
        const Lookup found = cache.lookup(cell.key_hex, cell.canonical);
        switch (found.status) {
          case LookupStatus::Hit:
            if (!found.outcome.ok && options.retry_failed) {
                cache.remove(cell.key_hex);
                pending.push_back(std::move(cell));
            } else {
                ++report.cached_hits;
                if (!found.outcome.ok)
                    ++report.failures;
            }
            break;
          case LookupStatus::Corrupt:
            warn("campaign: damaged record for cell %zu (%s): %s — "
                 "re-running",
                 i, cell.key_hex.c_str(), found.detail.c_str());
            ++report.corrupt_rerun;
            pending.push_back(std::move(cell));
            break;
          case LookupStatus::Miss:
            pending.push_back(std::move(cell));
            break;
        }
    }
    report.executed = pending.size();

    // Each pending cell runs once and its outcome is cached, failure
    // or not: a cell is deterministic, so a rerun could only fail the
    // same way. Cells run in chunks of the worker count and each
    // chunk's records persist as it completes, so a SIGKILL loses at
    // most one chunk of in-flight work, never the records already
    // committed. That incremental durability is what the ci.sh crash
    // drill measures.
    const ExperimentBatch batch(options.jobs);
    const std::size_t chunk = static_cast<std::size_t>(batch.jobs());
    for (std::size_t at = 0; at < pending.size(); at += chunk) {
        const std::size_t end = std::min(pending.size(), at + chunk);
        std::vector<ExperimentCell> group;
        group.reserve(end - at);
        for (std::size_t j = at; j < end; ++j)
            group.push_back(cells[pending[j].index]);
        const std::vector<CellOutcome> outcomes = batch.runCatching(group);
        for (std::size_t j = 0; j < outcomes.size(); ++j) {
            const PendingCell &cell = pending[at + j];
            cache.store(cell.key_hex, cell.canonical, outcomes[j]);
            if (!outcomes[j].ok)
                ++report.failures;
        }
    }
    return report;
}

CampaignStatus
CampaignEngine::status() const
{
    const Manifest manifest = readManifest(dir_);
    const std::vector<ExperimentCell> cells = rebuildCells(manifest);
    const ResultCache cache(cacheDir());
    CampaignStatus out;
    out.total = cells.size();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Lookup found = cache.lookup(manifest.cells[i].key_hex,
                                          canonicalCellText(cells[i]));
        switch (found.status) {
          case LookupStatus::Hit:
            if (found.outcome.ok)
                ++out.cached_ok;
            else
                ++out.cached_failed;
            break;
          case LookupStatus::Corrupt:
            ++out.corrupt;
            break;
          case LookupStatus::Miss:
            ++out.missing;
            break;
        }
    }
    return out;
}

std::string
CampaignEngine::csvHeader()
{
    return "index,key,cpu_app,gpu_app,mode,mitigation,qos,seed,reps,"
           "ok,error,hit_time_cap,elapsed_ms,cpu_runtime_ms,"
           "gpu_runtime_ms,gpu_ssr_rate,cc6_fraction,"
           "user_l1d_miss_rate,user_branch_miss_rate,"
           "ssr_cpu_fraction,total_irqs,total_ipis,ssr_interrupts,"
           "faults_resolved,msis_raised,aborted_wavefronts,"
           "ssr_irqs_per_core";
}

std::size_t
CampaignEngine::merge(const std::string &out_path) const
{
    const Manifest manifest = readManifest(dir_);
    const std::vector<ExperimentCell> cells = rebuildCells(manifest);
    const ResultCache cache(cacheDir());

    std::string csv = csvHeader();
    csv += '\n';
    std::size_t unmerged = 0;
    std::string first_unmerged;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ExperimentCell &cell = cells[i];
        const Lookup found = cache.lookup(manifest.cells[i].key_hex,
                                          canonicalCellText(cell));
        if (found.status != LookupStatus::Hit) {
            if (unmerged++ == 0)
                first_unmerged = manifest.cells[i].key_hex + " ("
                    + manifest.cells[i].label
                    + (found.status == LookupStatus::Corrupt
                           ? ", corrupt: " + found.detail : ", missing")
                    + ")";
            continue;
        }
        const CellOutcome &o = found.outcome;
        const RunResult &r = o.result;
        std::string per_core;
        for (std::size_t c = 0; c < r.ssr_irqs_per_core.size(); ++c) {
            if (c > 0)
                per_core += ';';
            per_core += u64Field(r.ssr_irqs_per_core[c]);
        }
        csv += u64Field(i);
        csv += ',' + manifest.cells[i].key_hex;
        csv += ',' + csvField(cell.cpu_app);
        csv += ',' + csvField(cell.gpu_app);
        csv += ',' + std::string(modeName(cell.mode));
        csv += ',' + csvField(cell.config.mitigation.label());
        csv += ',' + f64Field(cell.config.qos_threshold);
        csv += ',' + u64Field(cell.config.seed);
        csv += ',' + std::to_string(cell.reps);
        csv += ',';
        csv += o.ok ? '1' : '0';
        csv += ',' + csvField(o.error);
        csv += ',';
        csv += r.hit_time_cap ? '1' : '0';
        csv += ',' + f64Field(r.elapsed_ms);
        csv += ',' + f64Field(r.cpu_runtime_ms);
        csv += ',' + f64Field(r.gpu_runtime_ms);
        csv += ',' + f64Field(r.gpu_ssr_rate);
        csv += ',' + f64Field(r.cc6_fraction);
        csv += ',' + f64Field(r.user_l1d_miss_rate);
        csv += ',' + f64Field(r.user_branch_miss_rate);
        csv += ',' + f64Field(r.ssr_cpu_fraction);
        csv += ',' + u64Field(r.total_irqs);
        csv += ',' + u64Field(r.total_ipis);
        csv += ',' + u64Field(r.ssr_interrupts);
        csv += ',' + u64Field(r.faults_resolved);
        csv += ',' + u64Field(r.msis_raised);
        csv += ',' + u64Field(r.aborted_wavefronts);
        csv += ',' + csvField(per_core);
        csv += '\n';
    }
    if (unmerged > 0)
        fatal("campaign: %zu of %zu cells have no valid record "
              "(first: %s) — run the remaining shards or resume "
              "before merging",
              unmerged, cells.size(), first_unmerged.c_str());
    try {
        snap::writeFileAtomic(out_path, csv);
    } catch (const snap::SnapshotError &e) {
        fatal("campaign: %s", e.what());
    }
    return cells.size();
}

} // namespace campaign
} // namespace hiss
