#!/usr/bin/env bash
# hiss_sim command-line contract: bad values must die cleanly with a
# "hiss_sim:" diagnostic and exit code 1 (not a crash), --help/--list
# must exit 0, the removed --reps/--jobs averaged mode must be refused,
# a --snapshot-at past the end of the run must be refused rather than
# stretch it, a snapshot that cannot be read, matched or written must
# exit 1 naming the seed, a tiny checked run and a snapshot round
# trip must succeed, the GPU summary must label its fault counts, and
# the host footer must report the peak resident set.
# Registered in ctest as hiss_sim_cli.
set -u

sim="$1"
failures=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

note() { printf '%s\n' "$*"; }

expect_exit0() {
    desc="$1"; shift
    out=$("$@" 2>&1); code=$?
    if [ "$code" -eq 0 ]; then
        note "ok: $desc"
    else
        note "FAIL: $desc (exit $code): $out"
        failures=$((failures + 1))
    fi
}

# Exit code must be exactly 1: the FatalError path. Anything >= 126
# would mean the parser crashed instead of diagnosing.
expect_clean_error() {
    desc="$1"; shift
    out=$("$@" 2>&1); code=$?
    if [ "$code" -eq 1 ] && printf '%s' "$out" | grep -q "hiss_sim:"; then
        note "ok: $desc"
    else
        note "FAIL: $desc (exit $code): $out"
        failures=$((failures + 1))
    fi
}

expect_exit0 "--help exits 0" "$sim" --help
expect_exit0 "--list exits 0" "$sim" --list
expect_exit0 "--describe exits 0" "$sim" --describe
expect_exit0 "tiny checked run" \
    "$sim" --gpu ubench --duration 0.2 --check

expect_clean_error "no workload" "$sim"
expect_clean_error "unknown argument" "$sim" --frobnicate
expect_clean_error "unknown CPU app" "$sim" --cpu nosuchapp
# Averaged cells are hiss_repro --reps.
expect_clean_error "tiny reps run" \
    "$sim" --gpu ubench --duration 0.2 --reps 2 --jobs 2 --check
expect_clean_error "removed --reps" "$sim" --cpu x264 --reps 2
expect_clean_error "removed --jobs" "$sim" --cpu x264 --jobs 2
expect_clean_error "zero --cores" "$sim" --cpu x264 --cores 0
expect_clean_error "out-of-range --qos" "$sim" --gpu ubench --qos 2
expect_clean_error "zero --qos" "$sim" --gpu ubench --qos 0
expect_clean_error "non-numeric --seed" "$sim" --gpu ubench --seed banana
expect_clean_error "negative --seed" "$sim" --gpu ubench --seed -7
expect_clean_error "padded negative --seed" \
    "$sim" --gpu ubench --duration 0.2 --seed " -7"
expect_clean_error "non-numeric --duration" "$sim" --gpu ubench --duration x
expect_clean_error "zero --accelerators" "$sim" --gpu ubench --accelerators 0
expect_clean_error "--steer core out of range" "$sim" --gpu ubench --steer 7

# Fault-injection flags: listed in --help, strict-parsed, and a tiny
# faulty checked run must complete cleanly (recovery, not a hang).
if "$sim" --help 2>&1 | grep -q -- '--fault-drop-irq'; then
    note "ok: --help lists the fault flags"
else
    note "FAIL: --help does not list --fault-drop-irq"
    failures=$((failures + 1))
fi
expect_exit0 "tiny faulty checked run" \
    "$sim" --gpu ubench --duration 0.5 --check \
    --fault-ppr-capacity 4 --fault-drop-irq 0.1 --fault-lose-signal 0.1
expect_clean_error "unknown fault flag" "$sim" --gpu ubench --fault-bogus
expect_clean_error "out-of-range --fault-drop-irq" \
    "$sim" --gpu ubench --fault-drop-irq 2
expect_clean_error "non-numeric --fault-dup-irq" \
    "$sim" --gpu ubench --fault-dup-irq maybe
expect_clean_error "zero --fault-ppr-capacity" \
    "$sim" --gpu ubench --fault-ppr-capacity 0
expect_clean_error "negative --fault-timeout" \
    "$sim" --gpu ubench --fault-timeout -5
expect_clean_error "missing --fault-retries value" \
    "$sim" --gpu ubench --fault-retries

# The GPU summary names what it counts: faults issued and resolved,
# each equal to its gpu.* stat (a run cut mid-fault has issued more).
out=$("$sim" --gpu ubench --duration 0.5 --stats - 2>&1)
summary=$(printf '%s\n' "$out" | grep '^  ubench ')
for what in issued resolved; do
    shown=$(printf '%s' "$summary" \
        | sed -n "s/.* faults_$what=\([0-9]*\) .*/\1/p")
    stat=$(printf '%s\n' "$out" \
        | awk -v n="gpu.faults_$what" '$1 == n { printf "%d", $2 }')
    if [ -n "$shown" ] && [ "$shown" = "$stat" ]; then
        note "ok: GPU summary faults_$what=$shown matches its stat"
    else
        note "FAIL: GPU summary faults_$what='$shown'," \
            "gpu.faults_$what='$stat': $summary"
        failures=$((failures + 1))
    fi
done

# The host footer reports peak memory, so no profiler is needed to
# see it.
if printf '%s\n' "$out" \
    | grep -Eq '^host: wall=.* peak_rss=[0-9]+\.[0-9] MB$'; then
    note "ok: host line reports peak_rss"
else
    note "FAIL: host line lacks peak_rss=<MB>:" \
        "$(printf '%s\n' "$out" | grep '^host:')"
    failures=$((failures + 1))
fi

# Exit 1 with a "hiss_sim:" diagnostic that names seed $1.
expect_seeded_error() {
    seed="$1"; desc="$2"; shift 2
    out=$("$@" 2>&1); code=$?
    if [ "$code" -eq 1 ] \
        && printf '%s' "$out" | grep -q "hiss_sim: .*(seed $seed)"; then
        note "ok: $desc"
    else
        note "FAIL: $desc (exit $code): $out"
        failures=$((failures + 1))
    fi
}

# Snapshots: a save-then-load round trip works on every build (the
# snapshot flags stand a HISS_CHECK=ON monitor down), and a file that
# cannot be read, belongs to another seed, or cannot be written is a
# clean error, not an uncaught exception.
expect_exit0 "--snapshot-save at 0.5 ms" \
    "$sim" --gpu ubench --duration 1 --seed 3 --snapshot-at 0.5 \
    --snapshot-save "$tmp/rt.hsnap"
expect_exit0 "--snapshot-load of that file" \
    "$sim" --gpu ubench --duration 1 --seed 3 \
    --snapshot-load "$tmp/rt.hsnap"
expect_seeded_error 4 "--snapshot-load under another seed" \
    "$sim" --gpu ubench --duration 1 --seed 4 \
    --snapshot-load "$tmp/rt.hsnap"
printf 'not a snapshot' > "$tmp/corrupt.hsnap"
expect_seeded_error 3 "corrupt --snapshot-load file" \
    "$sim" --gpu ubench --duration 1 --seed 3 \
    --snapshot-load "$tmp/corrupt.hsnap"
expect_seeded_error 3 "--snapshot-save into a missing directory" \
    "$sim" --gpu ubench --duration 1 --seed 3 --snapshot-at 0.5 \
    --snapshot-save "$tmp/no_such_dir/x.hsnap"

# --snapshot-at must not stretch the run: past the --duration cap it is
# refused before simulating; once every CPU app has finished (x264
# alone ends near 35 ms) it is refused before the file is written.
expect_clean_error "--snapshot-at past --duration" \
    "$sim" --gpu ubench --duration 1 --snapshot-at 5 \
    --snapshot-save "$tmp/past_cap.hsnap"
expect_clean_error "--snapshot-at after every CPU app finished" \
    "$sim" --cpu x264 --snapshot-at 80 \
    --snapshot-save "$tmp/past_apps.hsnap"
for f in past_cap past_apps; do
    if [ -e "$tmp/$f.hsnap" ]; then
        note "FAIL: refused --snapshot-at still wrote $f.hsnap"
        failures=$((failures + 1))
    fi
done

if [ "$failures" -ne 0 ]; then
    note "$failures CLI contract check(s) failed"
    exit 1
fi
note "all CLI contract checks passed"
