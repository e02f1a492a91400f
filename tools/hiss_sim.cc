/**
 * @file
 * hiss_sim — command-line driver for the HISS simulator.
 *
 * Runs an arbitrary CPU-app / GPU-workload pairing under any
 * combination of mitigations and QoS settings, and reports runtimes,
 * interference metrics, statistics dumps, a /proc/interrupts mirror,
 * and (optionally) a chrome://tracing timeline.
 *
 * Examples:
 *   hiss_sim --cpu x264 --gpu ubench
 *   hiss_sim --cpu facesim --gpu sssp --qos 0.01
 *   hiss_sim --gpu ubench --steer 0 --coalesce 13 --duration 20
 *   hiss_sim --cpu x264 --gpu sssp --trace timeline.json
 *
 * Each invocation simulates one seed; averaged, seed-swept cells are
 * hiss_repro --reps.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/hiss.h"
#include "sim/cli_args.h"
#include "sim/logging.h"
#include "sim/tracing.h"

namespace {

using namespace hiss;
using namespace hiss::cli;

struct Options
{
    std::vector<std::string> cpu_apps;
    std::string gpu_app;
    bool demand_paging = true;
    bool loop_gpu = false;
    int extra_accelerators = 0;
    int cores = 0; // 0 = testbed default (Table II: 4).
    bool check = false;
    bool steer = false;
    int steer_core = 0;
    double coalesce_us = -1.0;
    bool adaptive_coalesce = false;
    bool monolithic = false;
    double qos_threshold = 0.0;
    ThrottlePolicy qos_policy = ThrottlePolicy::ExponentialBackoff;
    double duration_ms = 0.0; // 0 = until CPU app completes.
    std::uint64_t seed = 1;
    FaultPlan fault;
    std::string stats_path;
    std::string csv_path;
    std::string trace_path;
    std::string snapshot_save;
    double snapshot_at_ms = 0.0; // 0 = save at the end of the run.
    std::string snapshot_load;
    bool proc_interrupts = false;
    bool describe = false;
    bool list = false;
};

void
usage()
{
    std::printf(
        "hiss_sim — heterogeneous-SoC SSR interference simulator\n"
        "\n"
        "Workloads:\n"
        "  --cpu app[,app...]   PARSEC-like CPU application(s)\n"
        "  --gpu workload       GPU workload (bfs bpt spmv sssp\n"
        "                       xsbench ubench)\n"
        "  --no-demand-paging   pinned GPU memory: no SSRs\n"
        "  --loop-gpu           restart the GPU kernel until the end\n"
        "  --accelerators N     N-1 extra accelerators, same workload\n"
        "\n"
        "Mitigations (paper Section V):\n"
        "  --steer [core]       MSI steering to a single core\n"
        "  --coalesce [us]      interrupt coalescing (default 13 us)\n"
        "  --adaptive-coalesce  rate-adaptive coalescing window\n"
        "  --monolithic         monolithic bottom-half handler\n"
        "\n"
        "QoS (paper Section VI):\n"
        "  --qos threshold      cap SSR CPU-time fraction (e.g. 0.01)\n"
        "  --qos-policy P       backoff (paper) or bucket\n"
        "\n"
        "Fault injection (docs/MODEL.md failure model):\n"
        "  --fault-ppr-capacity N   finite PPR queue: overflow INVALID\n"
        "  --fault-drop-irq p       drop each SSR MSI with prob p\n"
        "  --fault-dup-irq p        duplicate each SSR MSI with prob p\n"
        "  --fault-delay-irq p      delay each SSR MSI with prob p\n"
        "  --fault-delay-ipi p      delay each resched IPI with prob p\n"
        "  --fault-stall-kworker p  transiently stall kworkers, prob p\n"
        "  --fault-lose-signal p    lose GPU signal-queue entries\n"
        "  --fault-timeout us       driver watchdog timeout (0 = off)\n"
        "  --fault-retries N        GPU translate retries before abort\n"
        "\n"
        "Run control and output:\n"
        "  --cores N            CPU core count (default 4, Table II)\n"
        "  --check              arm the runtime invariant layer\n"
        "  --duration ms        fixed window (default: CPU app end)\n"
        "  --seed N             experiment seed (default 1)\n"
        "  --stats FILE|-       dump all statistics\n"
        "  --csv FILE           dump statistics as CSV\n"
        "  --trace FILE.json    chrome://tracing timeline\n"
        "  --snapshot-save FILE serialize simulator state to FILE\n"
        "  --snapshot-at ms     when to save (default: end of run)\n"
        "  --snapshot-load FILE restore state from FILE, then run on;\n"
        "                       needs the same workload flags + seed\n"
        "  --proc-interrupts    print the /proc/interrupts mirror\n"
        "  --describe           print the system configuration\n"
        "  --list               list available workloads\n");
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    auto optional_value = [&](int &i) -> const char * {
        if (i + 1 >= argc || argv[i + 1][0] == '-')
            return nullptr;
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&] { return needValue(argc, argv, i); };
        if (arg == "--help" || arg == "-h") {
            usage();
            return false;
        } else if (arg == "--cpu") {
            for (const std::string &app : splitList(value()))
                opt.cpu_apps.push_back(app);
        } else if (arg == "--gpu") {
            opt.gpu_app = value();
        } else if (arg == "--no-demand-paging") {
            opt.demand_paging = false;
        } else if (arg == "--loop-gpu") {
            opt.loop_gpu = true;
        } else if (arg == "--accelerators") {
            opt.extra_accelerators = static_cast<int>(
                parseInt("--accelerators", value(), 1, 64)) - 1;
        } else if (arg == "--steer") {
            opt.steer = true;
            if (const char *v = optional_value(i))
                opt.steer_core = static_cast<int>(
                    parseInt("--steer", v, 0, 255));
        } else if (arg == "--coalesce") {
            opt.coalesce_us = 13.0;
            if (const char *v = optional_value(i))
                opt.coalesce_us =
                    parseReal("--coalesce", v, 1e-3, 1e4);
        } else if (arg == "--adaptive-coalesce") {
            opt.adaptive_coalesce = true;
        } else if (arg == "--monolithic") {
            opt.monolithic = true;
        } else if (arg == "--qos") {
            opt.qos_threshold = parseReal("--qos", value(), 0.0, 1.0);
            if (opt.qos_threshold <= 0.0)
                fatal("--qos: threshold must be in (0, 1]");
        } else if (arg == "--qos-policy") {
            const char *v = value();
            if (std::strcmp(v, "backoff") == 0)
                opt.qos_policy = ThrottlePolicy::ExponentialBackoff;
            else if (std::strcmp(v, "bucket") == 0)
                opt.qos_policy = ThrottlePolicy::TokenBucket;
            else
                fatal("unknown qos policy: %s", v);
        } else if (arg == "--cores") {
            opt.cores = static_cast<int>(parseInt("--cores", value(), 1, 256));
        } else if (arg == "--check") {
            opt.check = true;
        } else if (arg == "--duration") {
            opt.duration_ms = parseReal("--duration", value(), 1e-6, 1e6);
        } else if (arg == "--seed") {
            opt.seed = parseSeed("--seed", value());
        } else if (arg == "--fault-ppr-capacity") {
            opt.fault.ppr_queue_capacity = static_cast<std::size_t>(
                parseInt("--fault-ppr-capacity", value(), 1, 1'000'000));
        } else if (arg == "--fault-drop-irq") {
            opt.fault.irq_drop_prob =
                parseReal("--fault-drop-irq", value(), 0.0, 1.0);
        } else if (arg == "--fault-dup-irq") {
            opt.fault.irq_dup_prob =
                parseReal("--fault-dup-irq", value(), 0.0, 1.0);
        } else if (arg == "--fault-delay-irq") {
            opt.fault.irq_delay_prob =
                parseReal("--fault-delay-irq", value(), 0.0, 1.0);
        } else if (arg == "--fault-delay-ipi") {
            opt.fault.ipi_delay_prob =
                parseReal("--fault-delay-ipi", value(), 0.0, 1.0);
        } else if (arg == "--fault-stall-kworker") {
            opt.fault.kworker_stall_prob =
                parseReal("--fault-stall-kworker", value(), 0.0, 1.0);
        } else if (arg == "--fault-lose-signal") {
            opt.fault.signal_loss_prob =
                parseReal("--fault-lose-signal", value(), 0.0, 1.0);
        } else if (arg == "--fault-timeout") {
            opt.fault.request_timeout =
                usToTicks(parseReal("--fault-timeout", value(), 0.0, 1e6));
        } else if (arg == "--fault-retries") {
            opt.fault.max_retries = static_cast<int>(
                parseInt("--fault-retries", value(), 0, 1'000));
        } else if (arg == "--stats") {
            opt.stats_path = value();
        } else if (arg == "--csv") {
            opt.csv_path = value();
        } else if (arg == "--trace") {
            opt.trace_path = value();
        } else if (arg == "--snapshot-save") {
            opt.snapshot_save = value();
        } else if (arg == "--snapshot-at") {
            opt.snapshot_at_ms =
                parseReal("--snapshot-at", value(), 1e-6, 1e6);
        } else if (arg == "--snapshot-load") {
            opt.snapshot_load = value();
        } else if (arg == "--proc-interrupts") {
            opt.proc_interrupts = true;
        } else if (arg == "--describe") {
            opt.describe = true;
        } else if (arg == "--list") {
            opt.list = true;
        } else {
            fatal("unknown argument: %s (try --help)", arg.c_str());
        }
    }

    // Cross-flag sanity.
    const int cores = opt.cores > 0 ? opt.cores : SystemConfig{}.num_cores;
    if (opt.steer && opt.steer_core >= cores)
        fatal("--steer %d: core out of range (system has %d cores)",
              opt.steer_core, cores);
    if (opt.snapshot_at_ms > 0.0 && opt.snapshot_save.empty())
        fatal("--snapshot-at needs --snapshot-save");
    if ((!opt.snapshot_save.empty() || !opt.snapshot_load.empty())
        && opt.check)
        fatal("snapshots with the invariant monitor armed (--check) "
              "are unsupported");
    return true;
}

/**
 * Host-performance footer: wall-clock, simulated-ticks/sec,
 * events/sec and the process's peak resident set, so BENCH_*.json
 * runs can track simulator throughput and memory.
 */
void
printHostThroughput(std::chrono::steady_clock::time_point wall_start,
                    Tick simulated, std::uint64_t events)
{
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - wall_start)
            .count();
    const double safe_s = wall_s > 0.0 ? wall_s : 1e-9;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    std::printf("host: wall=%.3f s  %.1f Mticks/s  %.2f Mevents/s "
                "(%llu events)  peak_rss=%.1f MB\n",
                wall_s, static_cast<double>(simulated) / safe_s / 1e6,
                static_cast<double>(events) / safe_s / 1e6,
                static_cast<unsigned long long>(events),
                static_cast<double>(usage.ru_maxrss) / 1024.0); // KiB
}

int
run(const Options &opt)
{
    if (opt.list) {
        std::printf("CPU applications:");
        for (const auto &name : parsec::benchmarkNames())
            std::printf(" %s", name.c_str());
        std::printf("\nGPU workloads:");
        for (const auto &name : gpu_suite::workloadNames())
            std::printf(" %s", name.c_str());
        std::printf("\n");
        return 0;
    }

    SystemConfig config;
    config.seed = opt.seed;
    if (opt.cores > 0)
        config.num_cores = opt.cores;
    if (opt.check)
        config.check_invariants = true;
    // Snapshots refuse an armed invariant monitor (parseArgs refuses
    // --check with them), so stand down a HISS_CHECK=ON default.
    if (!opt.snapshot_save.empty() || !opt.snapshot_load.empty())
        config.check_invariants = false;
    config.fault = opt.fault;
    MitigationConfig mitigation;
    mitigation.steer_to_single_core = opt.steer;
    mitigation.steer_core = opt.steer_core;
    mitigation.interrupt_coalescing = opt.coalesce_us >= 0.0;
    if (opt.coalesce_us > 0.0)
        mitigation.coalesce_window = usToTicks(opt.coalesce_us);
    mitigation.monolithic_bottom_half = opt.monolithic;
    config.applyMitigations(mitigation);
    config.iommu.adaptive_coalescing = opt.adaptive_coalesce;
    if (opt.qos_threshold > 0.0) {
        config.enableQos(opt.qos_threshold);
        config.kernel.qos.policy = opt.qos_policy;
    }

    if (opt.describe) {
        std::printf("%s", config.describe().c_str());
        return 0;
    }
    if (opt.cpu_apps.empty() && opt.gpu_app.empty())
        fatal("nothing to run: give --cpu and/or --gpu (see --help)");
    const Tick cap = opt.duration_ms > 0.0
        ? msToTicks(opt.duration_ms)
        : msToTicks(opt.cpu_apps.empty() ? 50.0 : 1000.0);
    // A snapshot past the end of the run would stretch the run to it.
    if (msToTicks(opt.snapshot_at_ms) > cap)
        fatal("--snapshot-at %g ms is past the run's %.3f ms cap",
              opt.snapshot_at_ms, ticksToMs(cap));

    const auto wall_start = std::chrono::steady_clock::now();
    HeteroSystem sys(config);
    std::unique_ptr<TraceWriter> trace;
    if (!opt.trace_path.empty()) {
        trace = std::make_unique<TraceWriter>(opt.trace_path);
        sys.setTraceWriter(trace.get());
    }

    std::vector<CpuApp *> apps;
    for (const auto &name : opt.cpu_apps) {
        CpuApp &app = sys.addCpuApp(parsec::params(name));
        app.start();
        apps.push_back(&app);
    }
    if (!opt.gpu_app.empty()) {
        const GpuWorkloadParams workload = gpu_suite::params(opt.gpu_app);
        sys.launchGpu(workload, opt.demand_paging, opt.loop_gpu);
        for (int a = 0; a < opt.extra_accelerators; ++a)
            sys.addAccelerator().launch(workload, opt.demand_paging,
                                        opt.loop_gpu);
    }

    if (!opt.snapshot_load.empty()) {
        sys.restoreSnapshotFile(opt.snapshot_load);
        std::printf("snapshot: restored %s (t=%.3f ms)\n",
                    opt.snapshot_load.c_str(), ticksToMs(sys.now()));
    }
    const auto apps_done = [&apps] {
        return std::all_of(apps.begin(), apps.end(),
                           [](const CpuApp *app) { return app->done(); });
    };
    if (!opt.snapshot_save.empty() && opt.snapshot_at_ms > 0.0) {
        sys.runUntil(msToTicks(opt.snapshot_at_ms));
        if (!apps.empty() && apps_done()) {
            Tick last = 0;
            for (const CpuApp *app : apps)
                last = std::max(last, app->completionTime());
            fatal("--snapshot-at %g ms is past the end of the run: "
                  "every CPU app finished by %.3f ms",
                  opt.snapshot_at_ms, ticksToMs(last));
        }
        sys.saveSnapshotFile(opt.snapshot_save);
        std::printf("snapshot: saved %s (t=%.3f ms)\n",
                    opt.snapshot_save.c_str(), ticksToMs(sys.now()));
    }

    if (apps.empty())
        sys.runUntil(cap);
    else
        sys.runUntilCondition(apps_done, cap);
    // An end-of-run snapshot is taken before finalizeStats() so a
    // later --snapshot-load can keep simulating from unfolded state.
    if (!opt.snapshot_save.empty() && opt.snapshot_at_ms <= 0.0) {
        sys.saveSnapshotFile(opt.snapshot_save);
        std::printf("snapshot: saved %s (t=%.3f ms)\n",
                    opt.snapshot_save.c_str(), ticksToMs(sys.now()));
    }
    sys.finalizeStats();

    // Report.
    std::printf("simulated %.3f ms (seed %llu)\n", ticksToMs(sys.now()),
                static_cast<unsigned long long>(opt.seed));
    for (const CpuApp *app : apps) {
        if (app->done())
            std::printf("  %-16s completed in %.3f ms\n",
                        app->params().name.c_str(),
                        ticksToMs(app->completionTime()));
        else
            std::printf("  %-16s NOT finished (%llu iterations)\n",
                        app->params().name.c_str(),
                        static_cast<unsigned long long>(
                            app->iterationsDone()));
    }
    if (!opt.gpu_app.empty()) {
        const Gpu &gpu = sys.gpu();
        std::printf("  %-16s kernels=%llu faults_issued=%llu "
                    "faults_resolved=%llu rate=%.0f/s",
                    opt.gpu_app.c_str(),
                    static_cast<unsigned long long>(
                        gpu.kernelsCompleted()),
                    static_cast<unsigned long long>(gpu.faultsIssued()),
                    static_cast<unsigned long long>(
                        gpu.faultsResolved()),
                    gpu.ssrRate());
        if (gpu.kernelsCompleted() > 0)
            std::printf(" first_kernel=%.3f ms",
                        ticksToMs(gpu.firstCompletionTime()));
        std::printf("\n");
    }
    Tick ssr = 0;
    double cc6 = 0.0;
    for (int c = 0; c < sys.kernel().numCores(); ++c) {
        ssr += sys.kernel().core(c).ssrTicks();
        cc6 += static_cast<double>(sys.kernel().core(c).cc6Ticks());
    }
    const double denom = static_cast<double>(sys.now())
        * sys.kernel().numCores();
    std::printf("  ssr_cpu=%.1f%%  cc6=%.1f%%  ipis=%llu\n",
                100.0 * static_cast<double>(ssr) / denom,
                100.0 * cc6 / denom,
                static_cast<unsigned long long>(
                    sys.kernel().scheduler().ipisSent()));
    printHostThroughput(wall_start, sys.now(),
                        sys.events().numExecuted());

    if (opt.proc_interrupts) {
        std::printf("\n/proc/interrupts:\n");
        sys.kernel().procInterrupts().dump(std::cout);
    }
    if (opt.stats_path == "-") {
        sys.stats().dump(std::cout);
    } else if (!opt.stats_path.empty()) {
        std::ofstream out(opt.stats_path);
        if (!out.is_open())
            fatal("cannot open %s", opt.stats_path.c_str());
        sys.stats().dump(out);
    }
    if (!opt.csv_path.empty()) {
        std::ofstream out(opt.csv_path);
        if (!out.is_open())
            fatal("cannot open %s", opt.csv_path.c_str());
        sys.stats().dumpCsv(out);
    }
    if (trace != nullptr)
        std::printf("trace: %s (%llu events)\n", opt.trace_path.c_str(),
                    static_cast<unsigned long long>(
                        trace->eventsWritten()));
    return 0;
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
    } catch (const std::runtime_error &e) {
        // FatalError or snap::SnapshotError. Always name the active
        // seed so a failing run — invariant violation, fatal() or a
        // snapshot that cannot be read or written — can be reproduced
        // verbatim.
        std::fprintf(stderr, "hiss_sim: %s (seed %llu)\n", e.what(),
                     static_cast<unsigned long long>(opt.seed));
        return 1;
    }
}
