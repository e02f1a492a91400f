#!/usr/bin/env bash
# hiss_campaign command-line contract: bad input must die cleanly with
# a "hiss_campaign:" diagnostic and exit code 1 (not a crash, and not a
# manifest whose cells all fail later), --help must exit 0, and a tiny
# build/run/status/merge round must succeed. Registered in ctest as
# hiss_campaign_cli.
set -u

camp="$1"
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

# Exit code must be exactly 1: the FatalError path. 2 and 3 are the
# status/run verdicts, and anything >= 126 would mean a crash.
expect_clean_error() {
    desc="$1"; shift
    out=$("$@" 2>&1); code=$?
    if [ "$code" -eq 1 ] \
        && printf '%s' "$out" | grep -q "hiss_campaign:"; then
        note "ok: $desc"
    else
        note "FAIL: $desc (exit $code): $out"
        failures=$((failures + 1))
    fi
}

expect_exit0 "--help exits 0" "$camp" --help

ok="$tmp/ok"
expect_exit0 "tiny build" "$camp" build --dir "$ok" --gpu ubench \
    --duration 0.2
expect_exit0 "tiny run" "$camp" run --dir "$ok" --jobs 1
expect_exit0 "status of a complete campaign" "$camp" status --dir "$ok"
expect_exit0 "tiny merge" "$camp" merge --dir "$ok" --out "$tmp/ok.csv"

bad="$tmp/bad"
expect_clean_error "no --dir" "$camp" build --gpu ubench
expect_clean_error "unknown verb" "$camp" frobnicate --dir "$bad"
for verb in build run resume status merge; do
    expect_clean_error "unknown $verb flag" \
        "$camp" "$verb" --dir "$ok" --bogus-flag 7
done
expect_clean_error "removed --warmup" \
    "$camp" build --dir "$bad" --gpu ubench --warmup 5
expect_clean_error "removed --max-attempts" \
    "$camp" run --dir "$ok" --max-attempts 2
expect_clean_error "removed --wall-budget" \
    "$camp" run --dir "$ok" --wall-budget 5
expect_clean_error "--shard index == count" \
    "$camp" run --dir "$ok" --shard 2/2
expect_clean_error "non-numeric --shard index" \
    "$camp" run --dir "$ok" --shard x/4
expect_clean_error "--shard without a count" \
    "$camp" run --dir "$ok" --shard 1
expect_clean_error "zero --seeds" \
    "$camp" build --dir "$bad" --gpu ubench --seeds 0
expect_clean_error "zero --reps" \
    "$camp" build --dir "$bad" --gpu ubench --reps 0
expect_clean_error "out-of-range --qos" \
    "$camp" build --dir "$bad" --gpu ubench --qos 2
expect_clean_error "unknown CPU app" \
    "$camp" build --dir "$bad" --cpu nosuchapp --gpu ubench
expect_clean_error "unknown GPU app" \
    "$camp" build --dir "$bad" --gpu nosuchapp
expect_clean_error "merge without --out" "$camp" merge --dir "$ok"

if [ -e "$bad/manifest.jsonl" ]; then
    note "FAIL: a rejected build wrote $bad/manifest.jsonl"
    failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
    note "$failures CLI contract check(s) failed"
    exit 1
fi
note "all CLI contract checks passed"
