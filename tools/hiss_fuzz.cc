/**
 * @file
 * hiss_fuzz — deterministic randomized stress harness.
 *
 * Generates seed-reproducible random configurations (workload mix,
 * mitigation combination, QoS policy and threshold, coalescing
 * window, accelerator count, duration) and runs short simulations
 * with the runtime invariant layer (src/check) armed. Every case is
 * derived purely from its seed through hiss::Rng, so a failing seed
 * reproduces bit-identically on any machine and any --jobs count.
 *
 * On failure the harness prints the exact seed, the generated
 * configuration, and a copy-pasteable hiss_sim command line, then
 * greedily shrinks the configuration (dropping mitigations, QoS, and
 * workloads one at a time) to the simplest variant that still fails.
 *
 * The fixed 64-seed corpus (seeds 1..64) runs in ctest under the
 * "fuzz" label:
 *   hiss_fuzz --seeds 64 --check
 *
 * Examples:
 *   hiss_fuzz --seeds 64 --check          # the ctest corpus
 *   hiss_fuzz --seed-base 1337 --seeds 1  # re-run one seed
 *   hiss_fuzz --seeds 256 --jobs 8 --no-shrink
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/hiss.h"
#include "sim/cli_args.h"
#include "sim/logging.h"
#include "sim/random.h"

namespace {

using namespace hiss;
using namespace hiss::cli;

struct Options
{
    int seeds = 64;
    std::uint64_t seed_base = 1;
    int jobs = 0; // 0 = all hardware threads.
    bool check = true;
    bool faults = false;
    bool shrink = true;
    bool verbose = false;
};

/**
 * One generated case. The heap-allocated SystemConfig base must stay
 * at a stable address: ExperimentCell copies the ExperimentConfig,
 * which carries only a pointer to it.
 */
struct FuzzCase
{
    std::uint64_t seed = 0;
    std::string cpu_app;
    std::string gpu_app;
    MeasureMode mode = MeasureMode::GpuOnly;
    ExperimentConfig config;
    SystemConfig base;
};

void
usage()
{
    std::printf(
        "hiss_fuzz — deterministic randomized stress harness\n"
        "\n"
        "  --seeds N       number of seeds to run (default 64)\n"
        "  --seed-base B   first seed (default 1); seeds B..B+N-1\n"
        "  --jobs N        parallel workers (default: all threads)\n"
        "  --check         arm the invariant layer (default)\n"
        "  --no-check      run without invariant sweeps\n"
        "  --faults        derive a fault-injection schedule per seed\n"
        "  --no-shrink     skip config shrinking on failure\n"
        "  --verbose       keep simulator warnings on stderr\n"
        "\n"
        "A failing seed prints a copy-pasteable hiss_sim repro and a\n"
        "one-seed hiss_fuzz rerun command, then greedily shrinks the\n"
        "configuration to the simplest variant that still fails.\n");
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return false;
        } else if (arg == "--seeds") {
            opt.seeds = static_cast<int>(
                parseInt("--seeds", needValue(argc, argv, i), 1, 1'000'000));
        } else if (arg == "--seed-base") {
            opt.seed_base = parseSeed("--seed-base", needValue(argc, argv, i));
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<int>(
                parseInt("--jobs", needValue(argc, argv, i), 0, 4096));
        } else if (arg == "--check") {
            opt.check = true;
        } else if (arg == "--no-check") {
            opt.check = false;
        } else if (arg == "--faults") {
            opt.faults = true;
        } else if (arg == "--shrink") {
            opt.shrink = true;
        } else if (arg == "--no-shrink") {
            opt.shrink = false;
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else {
            fatal("unknown argument: %s (try --help)", arg.c_str());
        }
    }
    if (opt.seed_base > UINT64_MAX
            - (static_cast<std::uint64_t>(opt.seeds) - 1))
        fatal("--seed-base %llu with --seeds %d overflows the seed "
              "space",
              static_cast<unsigned long long>(opt.seed_base),
              opt.seeds);
    return true;
}

/**
 * Derive a whole case from one seed. All draws come from a single
 * named stream in a fixed order, so a seed maps to exactly one
 * configuration forever (changing the draw order below invalidates
 * the corpus — bump the stream name if that is ever necessary).
 */
std::unique_ptr<FuzzCase>
makeCase(std::uint64_t seed, bool check, bool faults)
{
    const std::vector<std::string> &cpus = parsec::benchmarkNames();
    const std::vector<std::string> &gpus = gpu_suite::workloadNames();
    Rng rng(seed, "hiss_fuzz.config");

    auto fc = std::make_unique<FuzzCase>();
    fc->seed = seed;

    // Workload mix: mostly CPU+GPU pairs (the paper's shape), with
    // CPU-only and GPU-only corners.
    const bool with_cpu = rng.withProbability(0.7);
    if (with_cpu) {
        fc->cpu_app = cpus[rng.uniformInt(0, cpus.size() - 1)];
        if (rng.withProbability(0.12)) {
            fc->mode = MeasureMode::CpuOnly;
        } else {
            fc->gpu_app = gpus[rng.uniformInt(0, gpus.size() - 1)];
            fc->mode = MeasureMode::CpuPrimary;
        }
    } else {
        fc->gpu_app = gpus[rng.uniformInt(0, gpus.size() - 1)];
        fc->mode = MeasureMode::GpuOnly;
    }

    fc->base.num_cores = static_cast<int>(rng.uniformInt(2, 6));

    // Mitigation combination (all eight reachable, like Figs. 7-9).
    MitigationConfig &m = fc->config.mitigation;
    m.steer_to_single_core = rng.withProbability(0.4);
    m.steer_core = static_cast<int>(
        rng.uniformInt(0, static_cast<std::uint64_t>(
                              fc->base.num_cores - 1)));
    m.interrupt_coalescing = rng.withProbability(0.4);
    m.coalesce_window = usToTicks(rng.uniformReal(2.0, 26.0));
    m.monolithic_bottom_half = rng.withProbability(0.3);
    fc->base.iommu.adaptive_coalescing =
        m.interrupt_coalescing && rng.withProbability(0.25);

    if (rng.withProbability(0.5)) {
        fc->config.qos_threshold = rng.uniformReal(0.005, 0.3);
        fc->base.kernel.qos.policy = rng.withProbability(0.5)
            ? ThrottlePolicy::TokenBucket
            : ThrottlePolicy::ExponentialBackoff;
    }

    fc->config.gpu_demand_paging = !rng.withProbability(0.1);
    fc->config.extra_accelerators = fc->gpu_app.empty()
        ? 0 : static_cast<int>(rng.uniformInt(0, 2));
    fc->config.rate_window = msToTicks(rng.uniformReal(2.0, 8.0));
    fc->config.max_sim_time = msToTicks(rng.uniformReal(10.0, 30.0));
    fc->base.check_period =
        usToTicks(static_cast<double>(rng.uniformInt(20, 200)));

    // Fault schedules come from their own stream so enabling --faults
    // never disturbs the frozen "hiss_fuzz.config" draw order above.
    if (faults) {
        Rng frng(seed, "hiss_fuzz.faults");
        FaultPlan &f = fc->config.fault;
        if (frng.withProbability(0.6))
            f.ppr_queue_capacity =
                static_cast<std::size_t>(frng.uniformInt(4, 48));
        // Always at least 1% MSI loss: the corpus must prove recovery
        // under sustained PPR-chain faults, not just survive zeros.
        f.irq_drop_prob = frng.uniformReal(0.01, 0.10);
        if (frng.withProbability(0.5))
            f.irq_dup_prob = frng.uniformReal(0.005, 0.05);
        if (frng.withProbability(0.5))
            f.irq_delay_prob = frng.uniformReal(0.01, 0.10);
        if (frng.withProbability(0.4))
            f.ipi_delay_prob = frng.uniformReal(0.005, 0.05);
        if (frng.withProbability(0.4))
            f.kworker_stall_prob = frng.uniformReal(0.005, 0.05);
        if (frng.withProbability(0.5))
            f.signal_loss_prob = frng.uniformReal(0.01, 0.10);
        f.request_timeout = usToTicks(frng.uniformReal(200.0, 2000.0));
        f.max_retries = static_cast<int>(frng.uniformInt(2, 10));
    }

    fc->config.seed = seed;
    fc->config.check_invariants = check;
    fc->config.base_system = &fc->base;
    return fc;
}

std::string
describeCase(const FuzzCase &fc)
{
    char buf[384];
    std::snprintf(
        buf, sizeof buf,
        "cpu='%s' gpu='%s' cores=%d mitigation=%s%s qos=%g policy=%s "
        "demand_paging=%d accels=%d window=%.1fms cap=%.1fms "
        "faults=[%s]",
        fc.cpu_app.c_str(), fc.gpu_app.c_str(), fc.base.num_cores,
        fc.config.mitigation.label().c_str(),
        fc.base.iommu.adaptive_coalescing ? "+adaptive" : "",
        fc.config.qos_threshold,
        fc.base.kernel.qos.policy == ThrottlePolicy::TokenBucket
            ? "bucket" : "backoff",
        fc.config.gpu_demand_paging ? 1 : 0,
        1 + fc.config.extra_accelerators,
        ticksToMs(fc.config.rate_window),
        ticksToMs(fc.config.max_sim_time),
        fc.config.fault.label().c_str());
    return buf;
}

/** Copy-pasteable hiss_sim command line reproducing the case. */
std::string
reproCommand(const FuzzCase &fc)
{
    char buf[768];
    int n = std::snprintf(
        buf, sizeof buf, "hiss_sim --check --seed %llu --cores %d",
        static_cast<unsigned long long>(fc.seed), fc.base.num_cores);
    auto append = [&](const char *fmt, auto... args) {
        if (n >= 0 && n < static_cast<int>(sizeof buf))
            n += std::snprintf(buf + n, sizeof buf - n, fmt, args...);
    };
    if (!fc.cpu_app.empty())
        append(" --cpu %s", fc.cpu_app.c_str());
    if (!fc.gpu_app.empty())
        append(" --gpu %s --loop-gpu", fc.gpu_app.c_str());
    if (!fc.config.gpu_demand_paging)
        append(" --no-demand-paging");
    if (fc.config.extra_accelerators > 0)
        append(" --accelerators %d", 1 + fc.config.extra_accelerators);
    const MitigationConfig &m = fc.config.mitigation;
    if (m.steer_to_single_core)
        append(" --steer %d", m.steer_core);
    if (m.interrupt_coalescing)
        append(" --coalesce %.3f", ticksToUs(m.coalesce_window));
    if (fc.base.iommu.adaptive_coalescing)
        append(" --adaptive-coalesce");
    if (m.monolithic_bottom_half)
        append(" --monolithic");
    if (fc.config.qos_threshold > 0.0)
        append(" --qos %g --qos-policy %s", fc.config.qos_threshold,
               fc.base.kernel.qos.policy == ThrottlePolicy::TokenBucket
                   ? "bucket" : "backoff");
    const FaultPlan &f = fc.config.fault;
    if (f.enabled()) {
        if (f.ppr_queue_capacity > 0)
            append(" --fault-ppr-capacity %llu",
                   static_cast<unsigned long long>(
                       f.ppr_queue_capacity));
        if (f.irq_drop_prob > 0.0)
            append(" --fault-drop-irq %.3f", f.irq_drop_prob);
        if (f.irq_dup_prob > 0.0)
            append(" --fault-dup-irq %.3f", f.irq_dup_prob);
        if (f.irq_delay_prob > 0.0)
            append(" --fault-delay-irq %.3f", f.irq_delay_prob);
        if (f.ipi_delay_prob > 0.0)
            append(" --fault-delay-ipi %.3f", f.ipi_delay_prob);
        if (f.kworker_stall_prob > 0.0)
            append(" --fault-stall-kworker %.3f",
                   f.kworker_stall_prob);
        if (f.signal_loss_prob > 0.0)
            append(" --fault-lose-signal %.3f", f.signal_loss_prob);
        append(" --fault-timeout %.0f --fault-retries %d",
               ticksToUs(f.request_timeout), f.max_retries);
    }
    append(" --duration %.3f", ticksToMs(fc.config.max_sim_time));
    return buf;
}

/** @return true when the case still fails (throws) when run serially. */
bool
caseFails(const FuzzCase &fc)
{
    try {
        ExperimentConfig config = fc.config;
        config.base_system = &fc.base;
        ExperimentRunner::run(fc.cpu_app, fc.gpu_app, config, fc.mode);
        return false;
    } catch (const std::exception &) {
        return true;
    }
}

/**
 * Greedy shrink: try dropping one configuration feature at a time,
 * keeping each simplification only if the case still fails. The
 * result is a local minimum — usually a one-mitigation repro.
 */
FuzzCase
shrinkCase(const FuzzCase &failing)
{
    struct Step
    {
        const char *what;
        bool (*apply)(FuzzCase &);
    };
    static const Step steps[] = {
        {"disable fault injection",
         [](FuzzCase &fc) {
             if (!fc.config.fault.enabled())
                 return false;
             fc.config.fault = FaultPlan{};
             return true;
         }},
        {"drop extra accelerators",
         [](FuzzCase &fc) {
             if (fc.config.extra_accelerators == 0)
                 return false;
             fc.config.extra_accelerators = 0;
             return true;
         }},
        {"disable adaptive coalescing",
         [](FuzzCase &fc) {
             if (!fc.base.iommu.adaptive_coalescing)
                 return false;
             fc.base.iommu.adaptive_coalescing = false;
             return true;
         }},
        {"disable monolithic bottom half",
         [](FuzzCase &fc) {
             if (!fc.config.mitigation.monolithic_bottom_half)
                 return false;
             fc.config.mitigation.monolithic_bottom_half = false;
             return true;
         }},
        {"disable coalescing",
         [](FuzzCase &fc) {
             if (!fc.config.mitigation.interrupt_coalescing)
                 return false;
             fc.config.mitigation.interrupt_coalescing = false;
             return true;
         }},
        {"disable steering",
         [](FuzzCase &fc) {
             if (!fc.config.mitigation.steer_to_single_core)
                 return false;
             fc.config.mitigation.steer_to_single_core = false;
             return true;
         }},
        {"disable QoS",
         [](FuzzCase &fc) {
             if (fc.config.qos_threshold <= 0.0)
                 return false;
             fc.config.qos_threshold = 0.0;
             return true;
         }},
        {"drop the CPU app",
         [](FuzzCase &fc) {
             if (fc.cpu_app.empty() || fc.gpu_app.empty())
                 return false;
             fc.cpu_app.clear();
             fc.mode = MeasureMode::GpuOnly;
             return true;
         }},
        {"reset core count to 4",
         [](FuzzCase &fc) {
             if (fc.base.num_cores == 4)
                 return false;
             fc.base.num_cores = 4;
             if (fc.config.mitigation.steer_core >= 4)
                 fc.config.mitigation.steer_core = 0;
             return true;
         }},
    };

    FuzzCase best = failing;
    for (const Step &step : steps) {
        FuzzCase candidate = best;
        if (!step.apply(candidate))
            continue;
        if (caseFails(candidate)) {
            std::printf("  shrink: %s — still fails\n", step.what);
            best = std::move(candidate);
        }
    }
    return best;
}

int
run(const Options &opt)
{
    if (!opt.verbose)
        logging::setLevel(logging::Level::Silent);

    std::vector<std::unique_ptr<FuzzCase>> cases;
    std::vector<ExperimentCell> cells;
    cases.reserve(static_cast<std::size_t>(opt.seeds));
    cells.reserve(static_cast<std::size_t>(opt.seeds));
    for (int i = 0; i < opt.seeds; ++i) {
        cases.push_back(
            makeCase(opt.seed_base + static_cast<std::uint64_t>(i),
                     opt.check, opt.faults));
        const FuzzCase &fc = *cases.back();
        cells.push_back({fc.cpu_app, fc.gpu_app, fc.config, fc.mode, 1});
    }

    const ExperimentBatch batch(opt.jobs);
    const std::vector<CellOutcome> outcomes = batch.runCatching(cells);

    int failures = 0;
    for (int i = 0; i < opt.seeds; ++i) {
        if (outcomes[static_cast<std::size_t>(i)].ok)
            continue;
        ++failures;
        const FuzzCase &fc = *cases[static_cast<std::size_t>(i)];
        std::printf("FAIL seed %llu: %s\n"
                    "  config: %s\n"
                    "  repro:  %s\n"
                    "  rerun:  hiss_fuzz --seed-base %llu --seeds 1\n",
                    static_cast<unsigned long long>(fc.seed),
                    outcomes[static_cast<std::size_t>(i)].error.c_str(),
                    describeCase(fc).c_str(), reproCommand(fc).c_str(),
                    static_cast<unsigned long long>(fc.seed));
        if (opt.shrink) {
            const FuzzCase shrunk = shrinkCase(fc);
            std::printf("  shrunk: %s\n"
                        "  repro:  %s\n",
                        describeCase(shrunk).c_str(),
                        reproCommand(shrunk).c_str());
        }
    }

    std::printf("fuzz: %d seed%s (%llu..%llu), %d job%s, checks %s, "
                "faults %s: %d failure%s\n",
                opt.seeds, opt.seeds == 1 ? "" : "s",
                static_cast<unsigned long long>(opt.seed_base),
                static_cast<unsigned long long>(
                    opt.seed_base
                    + static_cast<std::uint64_t>(opt.seeds) - 1),
                batch.jobs(), batch.jobs() == 1 ? "" : "s",
                opt.check ? "armed" : "off",
                opt.faults ? "on" : "off", failures,
                failures == 1 ? "" : "s");
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        if (!parseArgs(argc, argv, opt))
            return 0;
        return run(opt);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "hiss_fuzz: %s\n", e.what());
        return 1;
    }
}
