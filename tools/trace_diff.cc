/**
 * @file
 * trace_diff — first-divergence finder for line-oriented dumps.
 *
 * Compares two text files (stats dumps, CSV exports, JSONL event
 * traces) line by line and reports the FIRST divergent line with
 * context, instead of diff's full hunk soup. Built for snapshot
 * debugging: run a cold simulation and a restored one with --stats
 * or --trace, then point trace_diff at the outputs — the first
 * divergent line names the subsystem that failed to round-trip.
 *
 * Usage:
 *   trace_diff A B [--ignore SUBSTR]... [--context N]
 *
 * Lines containing any --ignore substring are skipped on both sides
 * (wall-clock "host:" lines, "snapshot:" progress lines). Exit 0
 * when equivalent, 1 on divergence, 2 on usage/IO errors.
 */

#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>
#include <vector>

#include "sim/cli_args.h"

namespace {

struct Options
{
    std::string path_a;
    std::string path_b;
    std::vector<std::string> ignore;
    int context = 3;
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: trace_diff A B [--ignore SUBSTR]... [--context N]\n"
        "  Report the first line where A and B diverge.\n"
        "  --ignore SUBSTR  skip lines containing SUBSTR (repeatable)\n"
        "  --context N      lines of shared context to print "
        "(default 3)\n");
}

/** Parse the command line; false (after a diagnostic) on bad usage. */
bool
parseArgs(int argc, char **argv, Options &opt)
try {
    using namespace hiss::cli;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            return false;
        } else if (arg == "--ignore") {
            opt.ignore.push_back(needValue(argc, argv, i));
        } else if (arg == "--context") {
            opt.context = static_cast<int>(parseInt(
                "--context", needValue(argc, argv, i), 0, 1'000'000));
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "trace_diff: unknown flag %s\n",
                         arg.c_str());
            return false;
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() != 2) {
        std::fprintf(stderr, "trace_diff: need exactly two files\n");
        return false;
    }
    opt.path_a = positional[0];
    opt.path_b = positional[1];
    return true;
} catch (const hiss::FatalError &e) {
    std::fprintf(stderr, "trace_diff: %s\n", e.what());
    return false;
}

/** One side of the comparison: a filtered line stream. */
class LineStream
{
  public:
    LineStream(const std::string &path,
               const std::vector<std::string> &ignore)
        : in_(path), ignore_(ignore)
    {
    }

    bool ok() const { return in_.is_open(); }

    /** Next non-ignored line; false at EOF. Tracks raw line number. */
    bool
    next(std::string &line, std::size_t &lineno)
    {
        while (std::getline(in_, line)) {
            ++raw_lineno_;
            bool skip = false;
            for (const std::string &sub : ignore_)
                skip = skip || line.find(sub) != std::string::npos;
            if (skip)
                continue;
            lineno = raw_lineno_;
            return true;
        }
        return false;
    }

  private:
    std::ifstream in_;
    const std::vector<std::string> &ignore_;
    std::size_t raw_lineno_ = 0;
};

int
run(const Options &opt)
{
    LineStream a(opt.path_a, opt.ignore);
    LineStream b(opt.path_b, opt.ignore);
    if (!a.ok() || !b.ok()) {
        std::fprintf(stderr, "trace_diff: cannot open %s\n",
                     !a.ok() ? opt.path_a.c_str()
                             : opt.path_b.c_str());
        return 2;
    }

    std::deque<std::string> context;
    std::size_t compared = 0;
    for (;;) {
        std::string line_a;
        std::string line_b;
        std::size_t no_a = 0;
        std::size_t no_b = 0;
        const bool has_a = a.next(line_a, no_a);
        const bool has_b = b.next(line_b, no_b);
        if (!has_a && !has_b) {
            std::printf("trace_diff: identical (%zu lines compared)\n",
                        compared);
            return 0;
        }
        if (has_a != has_b) {
            std::printf("trace_diff: %s ends early after %zu shared "
                        "lines\n",
                        (has_a ? opt.path_b : opt.path_a).c_str(),
                        compared);
            if (has_a)
                std::printf("  only in %s:%zu: %s\n",
                            opt.path_a.c_str(), no_a, line_a.c_str());
            else
                std::printf("  only in %s:%zu: %s\n",
                            opt.path_b.c_str(), no_b, line_b.c_str());
            return 1;
        }
        if (line_a != line_b) {
            std::printf("trace_diff: first divergence after %zu "
                        "shared lines\n",
                        compared);
            for (const std::string &c : context)
                std::printf("    %s\n", c.c_str());
            std::printf("  - %s:%zu: %s\n", opt.path_a.c_str(), no_a,
                        line_a.c_str());
            std::printf("  + %s:%zu: %s\n", opt.path_b.c_str(), no_b,
                        line_b.c_str());
            return 1;
        }
        ++compared;
        context.push_back(line_a);
        while (context.size() > static_cast<std::size_t>(opt.context))
            context.pop_front();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage();
        return 2;
    }
    return run(opt);
}
