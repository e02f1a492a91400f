#include "campaign/manifest.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/logging.h"
#include "snap/snap.h"
#include "workloads/gpu_suite.h"
#include "workloads/parsec.h"

namespace hiss {
namespace campaign {
namespace {

// ---------------------------------------------------------------------
// Minimal flat-JSON emit/parse. Manifest and ledger lines are flat
// objects of strings, numbers, bools, and arrays of strings/numbers —
// written by this file, so the parser only has to be exact about that
// subset (and fail loudly on anything else).
// ---------------------------------------------------------------------

void
appendJsonString(std::string &out, const std::string &value)
{
    out += '"';
    out += jsonEscape(value);
    out += '"';
}

void
appendField(std::string &out, const char *key, const std::string &value)
{
    if (out.back() != '{')
        out += ',';
    appendJsonString(out, key);
    out += ':';
    appendJsonString(out, value);
}

void
appendFieldU64(std::string &out, const char *key, std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(value));
    if (out.back() != '{')
        out += ',';
    appendJsonString(out, key);
    out += ':';
    out += buf;
}

void
appendFieldF64(std::string &out, const char *key, double value)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (out.back() != '{')
        out += ',';
    appendJsonString(out, key);
    out += ':';
    out += buf;
}

void
appendFieldStrings(std::string &out, const char *key,
                   const std::vector<std::string> &values)
{
    if (out.back() != '{')
        out += ',';
    appendJsonString(out, key);
    out += ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out += ',';
        appendJsonString(out, values[i]);
    }
    out += ']';
}

void
appendFieldU64s(std::string &out, const char *key,
                const std::vector<std::uint64_t> &values)
{
    if (out.back() != '{')
        out += ',';
    appendJsonString(out, key);
    out += ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(values[i]));
        if (i > 0)
            out += ',';
        out += buf;
    }
    out += ']';
}

void
appendFieldF64s(std::string &out, const char *key,
                const std::vector<double> &values)
{
    if (out.back() != '{')
        out += ',';
    appendJsonString(out, key);
    out += ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%.17g", values[i]);
        if (i > 0)
            out += ',';
        out += buf;
    }
    out += ']';
}

/**
 * Position of the value for @p key in flat-object @p line, or npos.
 * Keys written by this file never collide with value text because
 * the needle includes the quotes and colon.
 */
std::size_t
valuePos(const std::string &line, const char *key)
{
    std::string needle;
    needle += '"';
    needle += key;
    needle += "\":";
    const std::size_t at = line.find(needle);
    return at == std::string::npos ? at : at + needle.size();
}

/** Parse the JSON string starting at @p pos (must be a '"'). */
std::string
parseString(const std::string &line, std::size_t pos, const char *what)
{
    if (pos == std::string::npos || pos >= line.size()
        || line[pos] != '"')
        fatal("manifest: expected string for %s in: %s", what,
              line.c_str());
    std::string out;
    for (std::size_t i = pos + 1; i < line.size(); ++i) {
        const char c = line[i];
        if (c == '"')
            return out;
        if (c == '\\' && i + 1 < line.size()) {
            const char next = line[++i];
            switch (next) {
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case '\\': out += '\\'; break;
              case '"': out += '"'; break;
              default: out += next; break;
            }
        } else {
            out += c;
        }
    }
    fatal("manifest: unterminated string for %s in: %s", what,
          line.c_str());
}

std::string
getString(const std::string &line, const char *key)
{
    return parseString(line, valuePos(line, key), key);
}

double
getF64(const std::string &line, const char *key)
{
    const std::size_t pos = valuePos(line, key);
    if (pos == std::string::npos)
        fatal("manifest: missing %s in: %s", key, line.c_str());
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(line.c_str() + pos, &end);
    if (end == line.c_str() + pos || errno == ERANGE)
        fatal("manifest: bad number for %s in: %s", key, line.c_str());
    return value;
}

std::uint64_t
getU64(const std::string &line, const char *key)
{
    const std::size_t pos = valuePos(line, key);
    if (pos == std::string::npos)
        fatal("manifest: missing %s in: %s", key, line.c_str());
    errno = 0;
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(line.c_str() + pos, &end, 10);
    if (end == line.c_str() + pos || errno == ERANGE)
        fatal("manifest: bad integer for %s in: %s", key,
              line.c_str());
    return value;
}

std::vector<std::string>
getStrings(const std::string &line, const char *key)
{
    std::size_t pos = valuePos(line, key);
    if (pos == std::string::npos || pos >= line.size()
        || line[pos] != '[')
        fatal("manifest: expected array for %s in: %s", key,
              line.c_str());
    std::vector<std::string> out;
    ++pos;
    while (pos < line.size() && line[pos] != ']') {
        if (line[pos] == ',') {
            ++pos;
            continue;
        }
        const std::string value = parseString(line, pos, key);
        out.push_back(value);
        // Skip past the closing quote: opening quote + escaped body.
        pos = line.find('"', pos + 1);
        while (pos != std::string::npos && line[pos - 1] == '\\')
            pos = line.find('"', pos + 1);
        if (pos == std::string::npos)
            fatal("manifest: unterminated array for %s", key);
        ++pos;
    }
    return out;
}

template <typename T>
std::vector<T>
getNumbers(const std::string &line, const char *key)
{
    std::size_t pos = valuePos(line, key);
    if (pos == std::string::npos || pos >= line.size()
        || line[pos] != '[')
        fatal("manifest: expected array for %s in: %s", key,
              line.c_str());
    std::vector<T> out;
    ++pos;
    while (pos < line.size() && line[pos] != ']') {
        if (line[pos] == ',') {
            ++pos;
            continue;
        }
        errno = 0;
        char *end = nullptr;
        const double value = std::strtod(line.c_str() + pos, &end);
        if (end == line.c_str() + pos || errno == ERANGE)
            fatal("manifest: bad array number for %s in: %s", key,
                  line.c_str());
        out.push_back(static_cast<T>(value));
        pos = static_cast<std::size_t>(end - line.c_str());
    }
    return out;
}

std::string
specLine(const GridSpec &spec)
{
    std::string out = "{";
    appendField(out, "type", "spec");
    appendField(out, "name", spec.name);
    appendFieldStrings(out, "cpu", spec.cpu_apps);
    appendFieldStrings(out, "gpu", spec.gpu_apps);
    appendFieldU64s(out, "seeds", spec.seeds);
    appendFieldU64(out, "all_mitigations",
                   spec.all_mitigations ? 1 : 0);
    appendFieldF64s(out, "qos", spec.qos_thresholds);
    appendFieldF64(out, "duration_ms", spec.duration_ms);
    appendFieldU64(out, "reps",
                   static_cast<std::uint64_t>(spec.reps));
    appendFieldF64(out, "tick_budget_ms", spec.tick_budget_ms);
    const FaultPlan &f = spec.fault;
    appendFieldU64(out, "fault_ppr_capacity", f.ppr_queue_capacity);
    appendFieldF64(out, "fault_drop", f.irq_drop_prob);
    appendFieldF64(out, "fault_dup", f.irq_dup_prob);
    appendFieldF64(out, "fault_delay", f.irq_delay_prob);
    appendFieldF64(out, "fault_ipi_delay", f.ipi_delay_prob);
    appendFieldF64(out, "fault_stall", f.kworker_stall_prob);
    appendFieldF64(out, "fault_sigloss", f.signal_loss_prob);
    appendFieldU64(out, "fault_timeout", f.request_timeout);
    appendFieldU64(out, "fault_retries",
                   static_cast<std::uint64_t>(f.max_retries));
    out += '}';
    return out;
}

GridSpec
parseSpec(const std::string &line)
{
    GridSpec spec;
    spec.name = getString(line, "name");
    spec.cpu_apps = getStrings(line, "cpu");
    spec.gpu_apps = getStrings(line, "gpu");
    spec.seeds = getNumbers<std::uint64_t>(line, "seeds");
    spec.all_mitigations = getU64(line, "all_mitigations") != 0;
    spec.qos_thresholds = getNumbers<double>(line, "qos");
    spec.duration_ms = getF64(line, "duration_ms");
    spec.reps = static_cast<int>(getU64(line, "reps"));
    spec.tick_budget_ms = getF64(line, "tick_budget_ms");
    spec.fault.ppr_queue_capacity =
        static_cast<std::size_t>(getU64(line, "fault_ppr_capacity"));
    spec.fault.irq_drop_prob = getF64(line, "fault_drop");
    spec.fault.irq_dup_prob = getF64(line, "fault_dup");
    spec.fault.irq_delay_prob = getF64(line, "fault_delay");
    spec.fault.ipi_delay_prob = getF64(line, "fault_ipi_delay");
    spec.fault.kworker_stall_prob = getF64(line, "fault_stall");
    spec.fault.signal_loss_prob = getF64(line, "fault_sigloss");
    spec.fault.request_timeout = getU64(line, "fault_timeout");
    spec.fault.max_retries =
        static_cast<int>(getU64(line, "fault_retries"));
    return spec;
}

std::string
cellLabel(const ExperimentCell &cell)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s/%s %s qos=%g seed=%llu",
                  cell.cpu_app.empty() ? "-" : cell.cpu_app.c_str(),
                  cell.gpu_app.empty() ? "-" : cell.gpu_app.c_str(),
                  cell.config.mitigation.label().c_str(),
                  cell.config.qos_threshold,
                  static_cast<unsigned long long>(cell.config.seed));
    return buf;
}

} // namespace

std::string
jsonEscape(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: out += c; break;
        }
    }
    return out;
}

std::vector<ExperimentCell>
GridSpec::buildCells() const
{
    if (gpu_apps.empty() && cpu_apps.empty())
        fatal("campaign: the grid needs at least one CPU or GPU app");
    // An unknown name fails the build here, not every cell at run
    // time after its retries.
    for (const std::string &cpu : cpu_apps)
        if (!cpu.empty())
            parsec::params(cpu);
    for (const std::string &gpu : gpu_apps)
        if (!gpu.empty())
            gpu_suite::params(gpu);
    // Normalize empty dimensions to a single "none" element so the
    // cross product stays a cross product.
    const std::vector<std::string> cpus =
        cpu_apps.empty() ? std::vector<std::string>{""} : cpu_apps;
    const std::vector<std::string> gpus =
        gpu_apps.empty() ? std::vector<std::string>{""} : gpu_apps;
    const std::vector<MitigationConfig> mitigations = all_mitigations
        ? MitigationConfig::allCombinations()
        : std::vector<MitigationConfig>{MitigationConfig{}};

    std::vector<ExperimentCell> cells;
    cells.reserve(cpus.size() * gpus.size() * mitigations.size()
                  * qos_thresholds.size() * seeds.size());
    for (const std::string &cpu : cpus) {
        for (const std::string &gpu : gpus) {
            if (cpu.empty() && gpu.empty())
                fatal("campaign: a grid cell has neither a CPU nor "
                      "a GPU app");
            for (const MitigationConfig &mitigation : mitigations) {
                for (const double qos : qos_thresholds) {
                    for (const std::uint64_t seed : seeds) {
                        ExperimentCell cell;
                        cell.cpu_app = cpu;
                        cell.gpu_app = gpu;
                        cell.mode = !cpu.empty()
                            ? (gpu.empty() ? MeasureMode::CpuOnly
                                           : MeasureMode::CpuPrimary)
                            : MeasureMode::GpuOnly;
                        cell.reps = reps;
                        cell.config.mitigation = mitigation;
                        cell.config.qos_threshold = qos;
                        cell.config.seed = seed;
                        cell.config.fault = fault;
                        cell.config.rate_window =
                            msToTicks(duration_ms);
                        if (tick_budget_ms > 0.0)
                            cell.config.max_sim_time =
                                msToTicks(tick_budget_ms);
                        cells.push_back(std::move(cell));
                    }
                }
            }
        }
    }
    return cells;
}

void
writeManifest(const std::string &dir, const GridSpec &spec)
{
    const std::vector<ExperimentCell> cells = spec.buildCells();
    std::string out = "{";
    appendField(out, "type", "header");
    appendFieldU64(out, "format",
                   static_cast<std::uint64_t>(kManifestFormat));
    appendField(out, "name", spec.name);
    appendFieldU64(out, "cells", cells.size());
    out += "}\n";
    out += specLine(spec);
    out += '\n';
    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::string line = "{";
        appendField(line, "type", "cell");
        appendFieldU64(line, "index", i);
        appendField(line, "key", cellKeyHex(cells[i]));
        appendField(line, "label", cellLabel(cells[i]));
        line += "}\n";
        out += line;
    }
    try {
        snap::writeFileAtomic(dir + "/manifest.jsonl", out);
    } catch (const snap::SnapshotError &e) {
        fatal("campaign: %s", e.what());
    }
}

Manifest
readManifest(const std::string &dir)
{
    const std::string path = dir + "/manifest.jsonl";
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        fatal("campaign: cannot open %s (build the campaign first)",
              path.c_str());
    std::string line;
    if (!std::getline(in, line) || getString(line, "type") != "header")
        fatal("campaign: %s: missing header line", path.c_str());
    const std::uint64_t format = getU64(line, "format");
    if (format != static_cast<std::uint64_t>(kManifestFormat))
        fatal("campaign: %s: manifest format %llu unsupported "
              "(expected %d)",
              path.c_str(), static_cast<unsigned long long>(format),
              kManifestFormat);
    Manifest manifest;
    manifest.name = getString(line, "name");
    const std::uint64_t declared = getU64(line, "cells");

    if (!std::getline(in, line) || getString(line, "type") != "spec")
        fatal("campaign: %s: missing spec line", path.c_str());
    manifest.spec = parseSpec(line);

    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (getString(line, "type") != "cell")
            fatal("campaign: %s: unexpected line: %s", path.c_str(),
                  line.c_str());
        ManifestCell cell;
        cell.index = static_cast<std::size_t>(getU64(line, "index"));
        cell.key_hex = getString(line, "key");
        cell.label = getString(line, "label");
        if (cell.index != manifest.cells.size())
            fatal("campaign: %s: cell index %zu out of order",
                  path.c_str(), cell.index);
        manifest.cells.push_back(std::move(cell));
    }
    if (manifest.cells.size() != declared)
        fatal("campaign: %s: header declares %llu cells, found %zu "
              "(truncated manifest?)",
              path.c_str(), static_cast<unsigned long long>(declared),
              manifest.cells.size());
    return manifest;
}

std::vector<ExperimentCell>
rebuildCells(const Manifest &manifest)
{
    std::vector<ExperimentCell> cells = manifest.spec.buildCells();
    if (cells.size() != manifest.cells.size())
        fatal("campaign: spec rebuilds %zu cells but the manifest "
              "lists %zu — the grid code drifted since build",
              cells.size(), manifest.cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string key = cellKeyHex(cells[i]);
        if (key != manifest.cells[i].key_hex)
            fatal("campaign: cell %zu key drift (manifest %s, "
                  "rebuilt %s) — canonical serialization changed "
                  "since build; rebuild the campaign",
                  i, manifest.cells[i].key_hex.c_str(), key.c_str());
    }
    return cells;
}

} // namespace campaign
} // namespace hiss
