/**
 * @file
 * hiss_repro — regenerate the paper's tables and figures.
 *
 * Collects the cells of every selected figure, runs them as one
 * ExperimentBatch (so a run that several figures share is simulated
 * once), then prints each figure's stdout in the order named. Output
 * is bit-identical at any --jobs and whichever figures share a run.
 *
 * With --cache DIR the batch serves each per-seed run that DIR holds
 * and stores each new one as it finishes, so a killed command resumes
 * where it stopped. --shard k/K runs only the cells whose cell key is
 * k modulo K, to fill the cache from K processes, and prints nothing;
 * an unsharded --cache run then executes what is missing and prints.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "sim/cli_args.h"
#include "snap/snap.h"

namespace {

using namespace hiss;
using namespace hiss::bench;

const Figure *const kFigures[] = {
    &kTable1,         &kTable2,         &kFig2,           &kFig3a,
    &kFig3b,          &kFig4,           &kFig5,           &kSec4c,
    &kFig6,           &kFig7,           &kFig8,           &kFig9,
    &kFig12,          &kExtBackpressure, &kExtCoalesce,   &kExtFaultMatrix,
    &kExtMultiAccel,  &kExtQosPolicies,
};

struct Options
{
    std::vector<const Figure *> figures;
    int reps = 0; ///< 0 = each figure's default.
    int jobs = 0; ///< 0 = all hardware threads.
    bool full = false;
    std::string cache_dir; ///< Empty = no result cache.
    std::uint64_t shard = 0;
    std::uint64_t shard_count = 0; ///< 0 = not sharded.
};

const char kUsage[] =
    "usage: hiss_repro [--reps N] [--jobs N] [--full] [--cache DIR\n"
    "                  [--shard k/K]] FIGURE...|all\n"
    "  --reps N     repetitions per cell (default: each figure's own);\n"
    "               table1 reads it as requests per kind (default 40)\n"
    "  --jobs N     parallel workers (default: all hardware threads)\n"
    "  --full       complete CPU-app sweeps for fig6/fig7/fig8\n"
    "  --cache DIR  serve runs from, and store them in, a result cache\n"
    "  --shard k/K  only fill the cache with the cells whose key is k\n"
    "               modulo K; print nothing\n"
    "  --list       list the figures\n";

/** --shard's k/K, with 0 <= k < K. */
void
parseShard(const char *text, Options &opt)
{
    const std::string value = text;
    const std::size_t slash = value.find('/');
    if (slash == std::string::npos)
        fatal("--shard: '%s' is not k/K", text);
    opt.shard_count = static_cast<std::uint64_t>(cli::parseInt(
        "--shard", value.substr(slash + 1).c_str(), 1, 1 << 20));
    opt.shard = static_cast<std::uint64_t>(
        cli::parseInt("--shard", value.substr(0, slash).c_str(), 0,
                      static_cast<long long>(opt.shard_count) - 1));
}

/** FNV-1a of this executable: another build's records are stale. */
std::string
buildFingerprint()
{
    snap::Hash64 h;
    h.mixString(snap::readFile("/proc/self/exe"));
    return keyToHex(h.value());
}

/** False when the command was --help/--list (already answered). */
bool
parseArgs(int argc, char **argv, Options &opt)
{
    using namespace hiss::cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            std::printf("%s", kUsage);
            return false;
        } else if (arg == "--list") {
            for (const Figure *figure : kFigures)
                std::printf("%-18s %s\n", figure->name, figure->title);
            return false;
        } else if (arg == "--reps") {
            opt.reps = static_cast<int>(
                parseInt("--reps", needValue(argc, argv, i), 1, 1000));
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<int>(
                parseInt("--jobs", needValue(argc, argv, i), 0, 4096));
        } else if (arg == "--full") {
            opt.full = true;
        } else if (arg == "--cache") {
            opt.cache_dir = needValue(argc, argv, i);
            if (opt.cache_dir.empty())
                fatal("--cache needs a directory");
        } else if (arg == "--shard") {
            parseShard(needValue(argc, argv, i), opt);
        } else if (arg[0] == '-') {
            fatal("unknown argument: %s (try --help)", arg.c_str());
        } else {
            const std::size_t named = opt.figures.size();
            for (const Figure *figure : kFigures)
                if (arg == "all" || arg == figure->name)
                    opt.figures.push_back(figure);
            if (opt.figures.size() == named)
                fatal("unknown figure '%s' (try --list)", arg.c_str());
        }
    }
    if (opt.figures.empty())
        fatal("no figure given (try --list)");
    if (opt.shard_count > 0 && opt.cache_dir.empty())
        fatal("--shard needs --cache: a shard only fills the cache");
    return true;
}

} // namespace

int
main(int argc, char **argv)
try {
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 0;

    std::vector<FigureArgs> args;
    std::vector<ExperimentCell> cells;
    std::vector<std::size_t> first; // Each figure's first cell index.
    for (const Figure *figure : opt.figures) {
        args.push_back({opt.reps > 0 ? opt.reps : figure->default_reps,
                        opt.full});
        first.push_back(cells.size());
        if (figure->cells != nullptr)
            for (ExperimentCell &cell : figure->cells(args.back()))
                cells.push_back(std::move(cell));
    }
    first.push_back(cells.size());
    if (opt.shard_count > 0)
        std::erase_if(cells, [&opt](const ExperimentCell &cell) {
            return !inShard(cell, opt.shard, opt.shard_count);
        });

    std::optional<campaign::ResultCache> cache;
    if (!opt.cache_dir.empty())
        cache.emplace(opt.cache_dir, buildFingerprint());
    const ExperimentBatch batch(opt.jobs, cache ? &*cache : nullptr);
    progress("running " + std::to_string(cells.size())
             + " experiment cells on " + std::to_string(batch.jobs())
             + " jobs");
    BatchTally tally;
    const std::vector<RunResult> results = batch.run(cells, &tally);
    if (cache)
        progress("result cache: " + std::to_string(tally.cached)
                 + " served, " + std::to_string(tally.executed)
                 + " executed, " + std::to_string(tally.replaced)
                 + " replaced (stale or damaged)");
    if (opt.shard_count > 0)
        return 0;

    for (std::size_t f = 0; f < opt.figures.size(); ++f)
        opt.figures[f]->print(args[f],
                              Results(cells.data() + first[f],
                                      results.data() + first[f],
                                      first[f + 1] - first[f]));
    return 0;
} catch (const FatalError &e) {
    std::fprintf(stderr, "hiss_repro: %s\n", e.what());
    return 1;
} catch (const snap::SnapshotError &e) {
    std::fprintf(stderr, "hiss_repro: result cache: %s\n", e.what());
    return 1;
}
