#!/usr/bin/env bash
# Local CI sweep: configure and build each CMake preset, run the
# tier-1 test suite, then the randomized fuzz corpus (ctest -L fuzz).
# The fault-injection corpus (ctest -L fault) additionally runs under
# the asan preset, where a recovery-path use-after-free would be loud.
#
# Usage: tools/ci.sh [preset...]      (default: default check asan tsan;
#                                      every preset sweep starts with the
#                                      hiss_lint and hiss_statecheck
#                                      static passes and ends with the
#                                      snapshot and perf legs)
#        tools/ci.sh lint             (static pass only: build hiss_lint,
#                                      run the rule self-test, then lint
#                                      the tree — zero unsuppressed
#                                      findings or the build fails)
#        tools/ci.sh statecheck       (state-coverage pass only: build
#                                      hiss_statecheck, run its fixture
#                                      self-test, require the seeded
#                                      drill fixture to fire the save,
#                                      restore, structure and cell-key
#                                      rules (its pointer-reached field
#                                      named) and the clean fixture
#                                      to pass, then prove the live
#                                      tree covers every field)
#        tools/ci.sh tidy             (optional clang-tidy pass over
#                                      compile_commands.json; no-ops
#                                      gracefully when clang-tidy is
#                                      not installed)
#        tools/ci.sh bench            (regression gate: fresh microbench
#                                      runs vs committed BENCH_*.json;
#                                      fails on >20% items_per_second
#                                      loss of any *Batch median)
#        tools/ci.sh bench --update   (rewrite the committed baselines)
#        tools/ci.sh perf             (end-to-end benchmark smoke:
#                                      python3 perfbench/run.py --short;
#                                      pinned digests, traced == untraced)
#        tools/ci.sh snapshot         (snapshot fidelity leg: a run
#                                      restored from a mid-warmup
#                                      snapshot must produce byte-
#                                      identical stats to the cold
#                                      run, with and without fault
#                                      injection; first divergence
#                                      reported by tools/trace_diff)
#        tools/ci.sh campaign [preset...]
#                                     (crash-drill leg, default presets
#                                      default check asan: shard a grid
#                                      across two hiss_campaign
#                                      processes, SIGKILL one mid-
#                                      flight, resume it, and require
#                                      the merged CSV byte-identical
#                                      to an uninterrupted reference
#                                      run)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)

# `lint` mode: the static determinism/discipline gate (docs/TESTING.md
# "Static checks"). Builds only the analyzer and its self-test, so it
# is the cheapest CI entry point and runs before the preset sweeps.
run_lint() {
    cmake --preset default
    cmake --build --preset default -j "$jobs" \
        --target hiss_lint hiss_lint_selftest
    build-default/tools/lint/hiss_lint_selftest \
        --gtest_brief=1
    build-default/tools/lint/hiss_lint --root .
    echo "ci: lint gate passed"
}
if [ "${1-}" = "lint" ]; then
    run_lint
    exit 0
fi

# `statecheck` mode: the cross-TU state-coverage gate (docs/TESTING.md
# "Static checks"). Like the lint gate it needs only the analyzer, so
# it also runs before the preset builds. The fixture drill mirrors the
# lint selftest pattern: the seeded corpus (a field added but not
# serialized, a class with no restore, a field missing from the cell
# key) must fire state-save, state-restore, state-structure and
# cell-key, and the clean corpus must stay silent, proving the gate
# can actually fail before we trust its green.
run_statecheck() {
    cmake --preset default
    cmake --build --preset default -j "$jobs" \
        --target hiss_statecheck hiss_statecheck_selftest
    build-default/tools/statecheck/hiss_statecheck_selftest \
        --gtest_brief=1
    local sc=build-default/tools/statecheck/hiss_statecheck
    local drill_out
    drill_out=$("$sc" --root tests/statecheck_fixtures --format=gcc \
        drill || true)
    local rule
    for rule in state-save state-restore state-structure cell-key; do
        echo "$drill_out" | grep -q "\[$rule\]" || {
            echo "ci: statecheck FAILED: drill fixture did not fire" \
                 "$rule"
            exit 1
        }
    done
    # The cell-key walk must follow pointers (a cell's base_system).
    echo "$drill_out" | grep -q "field 'ways' of Testbed" || {
        echo "ci: statecheck FAILED: drill fixture's pointer-reached" \
             "field was not flagged"
        exit 1
    }
    if "$sc" --root tests/statecheck_fixtures drill > /dev/null; then
        echo "ci: statecheck FAILED: drill fixture passed clean"
        exit 1
    fi
    "$sc" --root tests/statecheck_fixtures clean
    "$sc" --root .
    echo "ci: statecheck gate passed"
}
if [ "${1-}" = "statecheck" ]; then
    run_statecheck
    exit 0
fi

# `tidy` mode: optional clang-tidy sweep. Not a gate — the container
# may not ship clang-tidy; skip loudly rather than fail.
if [ "${1-}" = "tidy" ]; then
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "ci: tidy skipped (clang-tidy not installed)"
        exit 0
    fi
    cmake --preset default
    files=$(git ls-files 'src/*.cc' 'tools/*.cc' | grep -v '^tools/lint/')
    # shellcheck disable=SC2086
    clang-tidy -p build-default --quiet $files
    echo "ci: tidy pass finished"
    exit 0
fi

# `perf` mode: every BENCHMARK.json workload at minimum length,
# checking correctness (pinned digests, traced results equal to
# untraced, spans), not speed. The full sweep runs it too, so a
# speed-only change that alters any simulated result fails CI.
run_perf() {
    python3 perfbench/run.py --short
}
if [ "${1-}" = "perf" ]; then
    run_perf
    exit 0
fi

# `bench` mode: build the RelWithDebInfo preset, run the substrate and
# event-queue microbenchmarks fresh, and gate on the committed
# baselines. The gated figures are the items_per_second medians of the
# *Batch benchmarks — the batching win this repo's hot paths rest on
# (see docs/TESTING.md); scalar medians and stddev/cv rows are noise
# and stay ungated.
if [ "${1-}" = "bench" ]; then
    update=false
    [ "${2-}" = "--update" ] && update=true
    cmake --preset default
    cmake --build --preset default -j "$jobs" \
        --target microbench_substrate microbench_event_queue \
                 microbench_snapshot microbench_campaign
    bench_flags=(--benchmark_format=json --benchmark_min_time=0.5
                 --benchmark_repetitions=3
                 --benchmark_report_aggregates_only=true)
    tmpdir=$(mktemp -d)
    trap 'rm -rf "$tmpdir"' EXIT
    build-default/bench/microbench_substrate "${bench_flags[@]}" \
        > "$tmpdir/BENCH_substrate.json"
    build-default/bench/microbench_event_queue "${bench_flags[@]}" \
        > "$tmpdir/BENCH_event_queue.json"
    build-default/bench/microbench_snapshot "${bench_flags[@]}" \
        > "$tmpdir/BENCH_snapshot.json"
    build-default/bench/microbench_campaign "${bench_flags[@]}" \
        > "$tmpdir/BENCH_campaign.json"

    # The campaign result cache must keep paying for itself: the
    # cold-grid/cache-hit-resume ratio recorded by
    # CampaignResumeSpeedup has to stay at 5x or better (ISSUE 9's
    # acceptance floor).
    if ! awk '
        /"name":/ { gsub(/[",]/, ""); name = $2 }
        /"speedup":/ {
            gsub(/,/, "")
            if (name ~ /CampaignResumeSpeedup/ && name ~ /_median$/) {
                printf "ci: bench campaign resume speedup %.2fx\n", $2
                if ($2 + 0 < 5.0) exit 1
            }
        }' "$tmpdir/BENCH_campaign.json"; then
        echo "ci: bench FAILED: campaign resume speedup fell below 5x"
        exit 1
    fi

    if $update; then
        cp "$tmpdir/BENCH_substrate.json" BENCH_substrate.json
        cp "$tmpdir/BENCH_event_queue.json" BENCH_event_queue.json
        cp "$tmpdir/BENCH_snapshot.json" BENCH_snapshot.json
        cp "$tmpdir/BENCH_campaign.json" BENCH_campaign.json
        echo "ci: bench baselines rewritten (BENCH_substrate.json," \
             "BENCH_event_queue.json, BENCH_snapshot.json," \
             "BENCH_campaign.json)"
        exit 0
    fi

    fail=0
    for b in substrate event_queue snapshot campaign; do
        base="BENCH_$b.json"
        fresh="$tmpdir/BENCH_$b.json"
        if [ ! -f "$base" ]; then
            echo "ci: bench: $base missing (run tools/ci.sh bench --update)"
            fail=1
            continue
        fi
        # Pair each "name" with the following "items_per_second"; gate
        # fresh/base >= 0.8 for every *Batch median in the baseline.
        if ! awk -v thresh=0.8 '
            /"name":/ { gsub(/[",]/, ""); name = $2 }
            /"items_per_second":/ {
                gsub(/,/, "")
                value = $2 + 0
                if (name ~ /Batch.*_median$/) {
                    if (NR == FNR) base[name] = value
                    else fresh[name] = value
                }
            }
            END {
                status = 0
                for (n in base) {
                    if (!(n in fresh)) {
                        printf "ci: bench: %s missing from fresh run\n", n
                        status = 1
                        continue
                    }
                    ratio = fresh[n] / base[n]
                    if (ratio < thresh) {
                        printf "ci: bench REGRESSION %s: %.3e -> %.3e items/s (%.2fx)\n", \
                               n, base[n], fresh[n], ratio
                        status = 1
                    } else {
                        printf "ci: bench ok %-40s %.2fx of baseline\n", n, ratio
                    }
                }
                exit status
            }' "$base" "$fresh"; then
            fail=1
        fi
    done
    if [ "$fail" -ne 0 ]; then
        echo "ci: bench gate FAILED (>20% regression or missing data;" \
             "refresh intentionally with tools/ci.sh bench --update)"
        exit 1
    fi
    echo "ci: bench gate passed"
    exit 0
fi

# `snapshot` mode: end-to-end restore fidelity through the CLI. A
# run restored from a mid-warmup snapshot must produce byte-identical
# stats/CSV dumps and stdout (modulo wall-clock and snapshot progress
# lines) to the cold run that never stopped. Exercised twice: clean,
# and with the full fault-injection schedule armed (watchdogs and
# RNG-driven IRQ fates cross the snapshot boundary). hiss_sim sends
# no GPU signal, so the signal queue and the injector's loss ledger
# stay empty here; tests/test_snapshot.cc carries them across a cut.
run_snapshot() {
    cmake --preset default
    cmake --build --preset default -j "$jobs" \
        --target hiss_sim trace_diff
    local sim=build-default/tools/hiss_sim
    local differ=build-default/tools/trace_diff
    local tmpdir
    tmpdir=$(mktemp -d)
    # Not `trap ... EXIT`: bench mode owns that slot when sourced.
    local base="--cpu x264 --gpu sssp --duration 30 --seed 9"
    local faulty="$base --fault-drop-irq 0.2 --fault-dup-irq 0.15 \
--fault-delay-irq 0.2 --fault-delay-ipi 0.1 --fault-stall-kworker 0.1 \
--fault-lose-signal 0.1 --fault-timeout 150 --fault-retries 4"
    # The fault leg cuts at 0.1 ms: its 150 us request watchdog has
    # aborted every sssp wavefront by 1 ms, so a later cut would carry
    # no SSR traffic. At 0.1 ms 4 faults are issued, 2 resolved and
    # none aborted, so all 4 aborts happen after the cut.
    local leg flags cut
    for leg in clean fault; do
        flags="$base"
        cut=13
        [ "$leg" = fault ] && flags="$faulty" && cut=0.1
        # shellcheck disable=SC2086
        $sim $flags --stats "$tmpdir/$leg.cold.stats" \
            --csv "$tmpdir/$leg.cold.csv" > "$tmpdir/$leg.cold.out"
        # shellcheck disable=SC2086
        $sim $flags --snapshot-save "$tmpdir/$leg.hsnap" \
            --snapshot-at "$cut" --stats "$tmpdir/$leg.save.stats" \
            --csv "$tmpdir/$leg.save.csv" > "$tmpdir/$leg.save.out"
        # shellcheck disable=SC2086
        $sim $flags --snapshot-load "$tmpdir/$leg.hsnap" \
            --stats "$tmpdir/$leg.warm.stats" \
            --csv "$tmpdir/$leg.warm.csv" > "$tmpdir/$leg.warm.out"
        local variant kind
        for variant in save warm; do
            for kind in stats csv; do
                $differ "$tmpdir/$leg.cold.$kind" \
                        "$tmpdir/$leg.$variant.$kind" || {
                    echo "ci: snapshot leg FAILED:" \
                         "$leg $variant $kind diverged"
                    rm -rf "$tmpdir"
                    exit 1
                }
            done
            $differ --ignore "host:" --ignore "snapshot:" \
                    "$tmpdir/$leg.cold.out" \
                    "$tmpdir/$leg.$variant.out" || {
                echo "ci: snapshot leg FAILED: $leg $variant stdout" \
                     "diverged"
                rm -rf "$tmpdir"
                exit 1
            }
        done
        echo "ci: snapshot leg ($leg) byte-identical"
    done
    rm -rf "$tmpdir"
    echo "ci: snapshot leg passed"
}
if [ "${1-}" = "snapshot" ]; then
    run_snapshot
    exit 0
fi

# `campaign` mode: the crash-resume drill (docs/TESTING.md "Campaign
# sweeps"). Two shards split an 8-cell grid; shard 0 is SIGKILLed the
# moment its first result record lands, then resumed. The engine's
# contract — write-then-rename records, content-addressed keys,
# resume-by-cache-scan — makes the merged CSV byte-identical to an
# uninterrupted reference run; tools/trace_diff reports the first
# divergence if it is not.
run_campaign() {
    local preset="${1:-default}"
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$jobs" \
        --target hiss_campaign trace_diff
    local camp="build-$preset/tools/hiss_campaign"
    local differ="build-$preset/tools/trace_diff"
    local tmpdir
    tmpdir=$(mktemp -d)
    # Cells long enough (~40 ms wall each) that the SIGKILL lands
    # while the victim still has work in flight.
    local grid="--gpu ubench --seeds 4 --qos 0,0.05 --duration 40"

    # Reference: the same grid, never interrupted.
    # shellcheck disable=SC2086
    $camp build --dir "$tmpdir/ref" $grid
    $camp run --dir "$tmpdir/ref" --jobs 2
    $camp merge --dir "$tmpdir/ref" --out "$tmpdir/ref.csv"

    # Crash drill: SIGKILL shard 0 once its first record is on disk.
    # shellcheck disable=SC2086
    $camp build --dir "$tmpdir/drill" $grid
    $camp run --dir "$tmpdir/drill" --shard 0/2 --jobs 1 \
        > /dev/null &
    local victim=$!
    local tries=0
    until ls "$tmpdir/drill/cache/"*.rec > /dev/null 2>&1; do
        tries=$((tries + 1))
        if [ "$tries" -gt 3000 ]; then
            echo "ci: campaign leg FAILED: no record ever appeared"
            kill -9 "$victim" 2> /dev/null || true
            rm -rf "$tmpdir"
            exit 1
        fi
        sleep 0.01
    done
    kill -9 "$victim" 2> /dev/null || true
    wait "$victim" 2> /dev/null || true

    # Resume the killed shard (it must serve at least one cell from
    # the cache — the records the victim committed survive the kill),
    # run the sibling shard, and merge.
    $camp resume --dir "$tmpdir/drill" --shard 0/2 --jobs 1 \
        | tee "$tmpdir/resume.out"
    grep -q "cached=[1-9]" "$tmpdir/resume.out" || {
        echo "ci: campaign leg FAILED: resume served nothing from" \
             "the cache"
        rm -rf "$tmpdir"
        exit 1
    }
    $camp run --dir "$tmpdir/drill" --shard 1/2 --jobs 2
    $camp merge --dir "$tmpdir/drill" --out "$tmpdir/drill.csv"
    $differ "$tmpdir/ref.csv" "$tmpdir/drill.csv" || {
        echo "ci: campaign leg FAILED: resumed merge diverged from" \
             "the uninterrupted reference"
        rm -rf "$tmpdir"
        exit 1
    }
    rm -rf "$tmpdir"
    echo "ci: campaign leg ($preset) crash-drill byte-identical"
}
if [ "${1-}" = "campaign" ]; then
    shift
    legs=("$@")
    if [ "${#legs[@]}" -eq 0 ]; then
        legs=(default check asan)
    fi
    for p in "${legs[@]}"; do
        run_campaign "$p"
    done
    echo "ci: campaign leg passed (${legs[*]})"
    exit 0
fi

presets=("$@")
if [ "${#presets[@]}" -eq 0 ]; then
    presets=(default check asan tsan)
fi

# Static passes first: cheapest gates, and a determinism- or
# state-coverage-contract violation should fail CI before an hour of
# sanitizer builds.
run_lint
run_statecheck

for p in "${presets[@]}"; do
    echo "=== preset: $p ==="
    cmake --preset "$p"
    cmake --build --preset "$p" -j "$jobs"
    ctest --test-dir "build-$p" --output-on-failure -j "$jobs" \
        -LE 'fuzz|fault'
    ctest --test-dir "build-$p" --output-on-failure -L fuzz
    if [ "$p" = "asan" ]; then
        ctest --test-dir "build-$p" --output-on-failure -L fault
    fi
    # The crash-resume drill rides the presets it is specified for.
    case "$p" in
      default|check|asan) run_campaign "$p" ;;
    esac
done

# The full sweep also exercises the snapshot restore-fidelity leg
# and the end-to-end benchmark's pinned-result check.
run_snapshot
run_perf

echo "ci: all presets green (${presets[*]} snapshot perf)"
