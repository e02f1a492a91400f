#include "campaign/result_cache.h"

#include <filesystem>

#include "sim/logging.h"
#include "snap/snap.h"

namespace hiss {
namespace campaign {
namespace {

/** Record section name inside the snapshot frame. */
constexpr const char *kSection = "campaign.record";

/** Bump on any record-payload layout change. */
constexpr std::uint32_t kRecordVersion = 2;

/** Walk a cached result's fields: written on store, read on lookup. */
void
snapIoResult(snap::Io &io, RunResult &result)
{
    io.b(result.hit_time_cap);
    io.f64(result.elapsed_ms);
    io.f64(result.cpu_runtime_ms);
    io.f64(result.gpu_runtime_ms);
    io.f64(result.gpu_ssr_rate);
    io.f64(result.accel_ssr_rate);
    io.f64(result.fault_latency_mean_us);
    io.f64(result.fault_latency_sd_us);
    io.f64(result.cc6_fraction);
    io.f64(result.user_l1d_miss_rate);
    io.f64(result.user_branch_miss_rate);
    io.f64(result.ssr_cpu_fraction);
    io.u64(result.total_irqs);
    io.u64(result.total_ipis);
    io.u64(result.ssr_interrupts);
    io.u64(result.faults_resolved);
    io.u64(result.msis_raised);
    io.u64(result.aborted_wavefronts);
    io.seq(result.ssr_irqs_per_core, [&io](std::uint64_t &v) { io.u64(v); });
}

/** The text a record of @p canonical carries: the line
 *  "build=<fingerprint>" first, when there is a fingerprint. */
std::string
stamped(const std::string &fingerprint, const std::string &canonical)
{
    if (fingerprint.empty())
        return canonical;
    std::string text = "build=";
    text += fingerprint;
    text += '\n';
    text += canonical;
    return text;
}

} // namespace

ResultCache::ResultCache(std::string dir, std::string fingerprint)
    : dir_(std::move(dir)), fingerprint_(std::move(fingerprint))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("result cache: cannot create '%s': %s", dir_.c_str(),
              ec.message().c_str());
}

std::string
ResultCache::recordPath(const std::string &key_hex) const
{
    return dir_ + "/" + key_hex + ".rec";
}

std::string
ResultCache::encode(const std::string &canonical,
                    const CellOutcome &outcome)
{
    snap::Writer w;
    w.section(kSection);
    w.u32(kRecordVersion);
    w.str(canonical);
    w.b(outcome.ok);
    if (outcome.ok) {
        RunResult result = outcome.result;
        snap::Io io(w);
        snapIoResult(io, result);
    } else {
        w.str(outcome.error);
        w.str(outcome.repro);
    }
    return snap::frame(w.buffer());
}

CellOutcome
ResultCache::decode(const std::string &blob, std::string &canonical_out)
{
    snap::Reader r(snap::unframe(blob));
    r.section(kSection);
    const std::uint32_t version = r.u32();
    if (version != kRecordVersion)
        throw snap::SnapshotError(
            "campaign record version " + std::to_string(version)
            + " unsupported (expected "
            + std::to_string(kRecordVersion) + ")");
    canonical_out = r.str();
    CellOutcome outcome;
    outcome.ok = r.b();
    if (outcome.ok) {
        snap::Io io(r);
        snapIoResult(io, outcome.result);
    } else {
        outcome.error = r.str();
        outcome.repro = r.str();
    }
    if (!r.atEnd())
        throw snap::SnapshotError(
            "campaign record has trailing bytes");
    return outcome;
}

Lookup
ResultCache::lookup(const std::string &key_hex,
                    const std::string &canonical) const
{
    const std::string path = recordPath(key_hex);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec)
        return {};
    Lookup out;
    try {
        std::string stored;
        out.outcome = decode(snap::readFile(path), stored);
        if (stored != stamped(fingerprint_, canonical)) {
            out.status = LookupStatus::Corrupt;
            out.detail = "canonical config text mismatch (another "
                         "build, key collision or stale key format)";
            out.outcome = CellOutcome{};
            return out;
        }
    } catch (const snap::SnapshotError &e) {
        out.status = LookupStatus::Corrupt;
        out.detail = e.what();
        out.outcome = CellOutcome{};
        return out;
    }
    out.status = LookupStatus::Hit;
    return out;
}

void
ResultCache::store(const std::string &key_hex,
                   const std::string &canonical,
                   const CellOutcome &outcome) const
{
    snap::writeFileAtomic(recordPath(key_hex),
                          encode(stamped(fingerprint_, canonical),
                                 outcome));
}

} // namespace campaign
} // namespace hiss
