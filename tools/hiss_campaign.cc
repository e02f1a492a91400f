/**
 * @file
 * hiss_campaign — crash-resumable sweep orchestrator CLI.
 *
 * Drives src/campaign over a campaign directory: build the work
 * manifest once, run any number of shards (concurrently, on separate
 * processes or machines sharing the directory), kill and resume them
 * freely, then merge the content-addressed result cache into one CSV.
 *
 * Examples:
 *   hiss_campaign build --dir camp --cpu x264,freqmine --gpu ubench \
 *       --seeds 3 --all-mitigations --duration 8
 *   hiss_campaign run --dir camp --shard 0/4 --jobs 2
 *   hiss_campaign resume --dir camp --shard 0/4 --jobs 2
 *   hiss_campaign status --dir camp
 *   hiss_campaign merge --dir camp --out results.csv
 *
 * Exit codes: 0 success; 1 fatal error; 2 status says incomplete;
 * 3 run finished but some owned cells settled as failures.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/hiss.h"
#include "sim/cli_args.h"
#include "sim/logging.h"

namespace {

using namespace hiss;
using namespace hiss::campaign;
using namespace hiss::cli;

void
usage()
{
    std::printf(
        "hiss_campaign — crash-resumable sharded sweep runner\n"
        "\n"
        "Verbs:\n"
        "  build   enumerate the grid and write the work manifest\n"
        "  run     run this shard's cells (resumes automatically)\n"
        "  resume  alias of run — the scan-and-fill loop is one verb\n"
        "  status  report cache coverage of the whole grid\n"
        "  merge   stream every record into one CSV\n"
        "\n"
        "Common:\n"
        "  --dir DIR            campaign directory (required)\n"
        "\n"
        "build:\n"
        "  --name NAME          campaign name (default: campaign)\n"
        "  --cpu a[,b...]       CPU apps ('' entries = GPU-only)\n"
        "  --gpu x[,y...]       GPU workloads\n"
        "  --seeds N            seeds base..base+N-1 (default 1)\n"
        "  --seed-base S        first seed (default 1)\n"
        "  --all-mitigations    all 8 mitigation combinations\n"
        "  --qos t[,t...]       QoS thresholds (0 = governor off)\n"
        "  --duration ms        rate window (default 8)\n"
        "  --reps N             repetitions per cell (default 1)\n"
        "  --tick-budget ms     simulated-time cap per cell\n"
        "\n"
        "run / resume:\n"
        "  --shard k/K          own cells with index %% K == k "
        "(default 0/1)\n"
        "  --jobs N             worker threads (default: all)\n"
        "  --retry-failed       re-run cells with cached failures\n"
        "\n"
        "merge:\n"
        "  --out FILE           merged CSV path (required)\n");
}

/** Parse "k/K" into shard index and count. */
void
parseShard(const char *text, CampaignOptions &options)
{
    const char *slash = std::strchr(text, '/');
    if (slash == nullptr)
        fatal("--shard: expected k/K (e.g. 0/4), got '%s'", text);
    const std::string k(text, slash - text);
    options.shard_index = static_cast<int>(
        parseInt("--shard", k.c_str(), 0, 1 << 20));
    options.shard_count = static_cast<int>(
        parseInt("--shard", slash + 1, 1, 1 << 20));
    if (options.shard_index >= options.shard_count)
        fatal("--shard: index %d must be < count %d",
              options.shard_index, options.shard_count);
}

int
cmdBuild(int argc, char **argv, const std::string &dir)
{
    GridSpec spec;
    std::uint64_t seed_base = 1;
    std::size_t seed_count = 1;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--dir") {
            needValue(argc, argv, i);
        } else if (arg == "--name") {
            spec.name = needValue(argc, argv, i);
        } else if (arg == "--cpu") {
            spec.cpu_apps = splitList(needValue(argc, argv, i));
        } else if (arg == "--gpu") {
            spec.gpu_apps = splitList(needValue(argc, argv, i));
        } else if (arg == "--seeds") {
            seed_count = static_cast<std::size_t>(parseInt(
                "--seeds", needValue(argc, argv, i), 1, 1 << 20));
        } else if (arg == "--seed-base") {
            seed_base = static_cast<std::uint64_t>(parseInt(
                "--seed-base", needValue(argc, argv, i), 1,
                1LL << 60));
        } else if (arg == "--all-mitigations") {
            spec.all_mitigations = true;
        } else if (arg == "--qos") {
            spec.qos_thresholds.clear();
            for (const std::string &t :
                 splitList(needValue(argc, argv, i)))
                spec.qos_thresholds.push_back(
                    parseReal("--qos", t.c_str(), 0.0, 1.0));
        } else if (arg == "--duration") {
            spec.duration_ms = parseReal(
                "--duration", needValue(argc, argv, i), 1e-6, 1e6);
        } else if (arg == "--reps") {
            spec.reps = static_cast<int>(parseInt(
                "--reps", needValue(argc, argv, i), 1, 1024));
        } else if (arg == "--tick-budget") {
            spec.tick_budget_ms = parseReal(
                "--tick-budget", needValue(argc, argv, i), 0.0, 1e6);
        } else {
            fatal("build: unknown flag '%s'", arg.c_str());
        }
    }
    spec.seeds.clear();
    for (std::size_t s = 0; s < seed_count; ++s)
        spec.seeds.push_back(seed_base + s);

    const CampaignEngine engine(dir);
    engine.build(spec);
    const Manifest manifest = readManifest(dir);
    std::printf("campaign '%s': %zu cells -> %s/manifest.jsonl\n",
                manifest.name.c_str(), manifest.cells.size(),
                dir.c_str());
    return 0;
}

int
cmdRun(int argc, char **argv, const std::string &dir)
{
    CampaignOptions options;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--dir") {
            needValue(argc, argv, i);
        } else if (arg == "--shard") {
            parseShard(needValue(argc, argv, i), options);
        } else if (arg == "--jobs") {
            options.jobs = static_cast<int>(parseInt(
                "--jobs", needValue(argc, argv, i), 1, 1024));
        } else if (arg == "--retry-failed") {
            options.retry_failed = true;
        } else {
            fatal("run: unknown flag '%s'", arg.c_str());
        }
    }
    const CampaignEngine engine(dir);
    const CampaignReport report = engine.run(options);
    std::printf("campaign run: shard %d/%d total=%zu owned=%zu "
                "cached=%zu executed=%zu corrupt-rerun=%zu "
                "failures=%zu\n",
                options.shard_index, options.shard_count, report.total,
                report.owned, report.cached_hits, report.executed,
                report.corrupt_rerun, report.failures);
    return report.failures > 0 ? 3 : 0;
}

int
cmdStatus(int argc, char **argv, const std::string &dir)
{
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--dir")
            needValue(argc, argv, i);
        else
            fatal("status: unknown flag '%s'", arg.c_str());
    }
    const CampaignEngine engine(dir);
    const CampaignStatus s = engine.status();
    std::printf("campaign status: total=%zu ok=%zu failed=%zu "
                "corrupt=%zu missing=%zu (%s)\n",
                s.total, s.cached_ok, s.cached_failed, s.corrupt,
                s.missing, s.complete() ? "complete" : "incomplete");
    return s.complete() ? 0 : 2;
}

int
cmdMerge(int argc, char **argv, const std::string &dir)
{
    std::string out_path;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--dir")
            needValue(argc, argv, i);
        else if (arg == "--out")
            out_path = needValue(argc, argv, i);
        else
            fatal("merge: unknown flag '%s'", arg.c_str());
    }
    if (out_path.empty())
        fatal("merge: --out is required");
    const CampaignEngine engine(dir);
    const std::size_t rows = engine.merge(out_path);
    std::printf("campaign merge: %zu cells -> %s\n", rows,
                out_path.c_str());
    return 0;
}

std::string
findDir(int argc, char **argv)
{
    for (int i = 2; i < argc; ++i)
        if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc)
            return argv[i + 1];
    fatal("--dir is required");
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 2 || std::strcmp(argv[1], "--help") == 0
            || std::strcmp(argv[1], "-h") == 0) {
            usage();
            return argc < 2 ? 1 : 0;
        }
        const std::string verb = argv[1];
        const std::string dir = findDir(argc, argv);
        if (verb == "build")
            return cmdBuild(argc, argv, dir);
        if (verb == "run" || verb == "resume")
            return cmdRun(argc, argv, dir);
        if (verb == "status")
            return cmdStatus(argc, argv, dir);
        if (verb == "merge")
            return cmdMerge(argc, argv, dir);
        fatal("unknown verb '%s' (build run resume status merge)",
              verb.c_str());
    } catch (const hiss::FatalError &e) {
        std::fprintf(stderr, "hiss_campaign: %s\n", e.what());
        return 1;
    }
}
