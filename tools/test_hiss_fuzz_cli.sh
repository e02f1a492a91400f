#!/usr/bin/env bash
# hiss_fuzz command-line contract: --help and a one-seed run exit 0;
# bad flags and values die with a "hiss_fuzz:" diagnostic and exit
# code 1 (not a crash). Every case that could get past parsing asks
# for one seed, so no case starts more than one worker. Registered in
# ctest as hiss_fuzz_cli.
set -u

fuzz="$1"
failures=0

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

# Exit code must be exactly 1: the FatalError path.
expect_clean_error() {
    desc="$1"; shift
    out=$("$@" 2>&1); code=$?
    if [ "$code" -eq 1 ] && printf '%s' "$out" | grep -q "hiss_fuzz:"; then
        note "ok: $desc"
    else
        note "FAIL: $desc (exit $code): $out"
        failures=$((failures + 1))
    fi
}

expect_exit0 "--help exits 0" "$fuzz" --help
expect_exit0 "one-seed run" "$fuzz" --seeds 1 --jobs 1 --no-shrink

expect_clean_error "unknown argument" \
    "$fuzz" --frobnicate --seeds 1 --jobs 1
expect_clean_error "zero --seeds" "$fuzz" --seeds 0 --jobs 1
expect_clean_error "out-of-range --jobs" "$fuzz" --jobs 5000 --seeds 1
expect_clean_error "padded negative --seed-base" \
    "$fuzz" --seed-base " -1" --seeds 1 --jobs 1
expect_clean_error "--seed-base overflowing the seed space" \
    "$fuzz" --seed-base 18446744073709551615 --seeds 2 --jobs 1

if [ "$failures" -ne 0 ]; then
    note "$failures CLI contract check(s) failed"
    exit 1
fi
note "all CLI contract checks passed"
