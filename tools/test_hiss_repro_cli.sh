#!/usr/bin/env bash
# hiss_repro command-line contract: bad input must die cleanly with a
# "hiss_repro:" diagnostic and exit code 1 (not a crash, and never a
# silently reinterpreted run); --help/--list must exit 0. Registered
# in ctest as hiss_repro_cli.
set -u

repro="$1"
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

expect_clean_error() {
    desc="$1"; shift
    out=$("$@" 2>&1); code=$?
    if [ "$code" -eq 1 ] && printf '%s' "$out" | grep -q "hiss_repro:"; then
        note "ok: $desc"
    else
        note "FAIL: $desc (exit $code): $out"
        failures=$((failures + 1))
    fi
}

expect_exit0 "--help exits 0" "$repro" --help
expect_exit0 "--list exits 0" "$repro" --list
if "$repro" --list | grep -q '^fig4 '; then
    note "ok: --list names fig4"
else
    note "FAIL: --list does not name fig4"
    failures=$((failures + 1))
fi
expect_exit0 "cell-free figure runs" "$repro" table2

expect_clean_error "no figure" "$repro"
expect_clean_error "unknown figure" "$repro" fig99
expect_clean_error "unknown flag" "$repro" --frobnicate fig4
expect_clean_error "bare integer" "$repro" fig4 3
expect_clean_error "zero --reps" "$repro" fig4 --reps 0
expect_clean_error "non-numeric --reps" "$repro" fig4 --reps abc
expect_clean_error "float --reps" "$repro" fig4 --reps 1e3
expect_clean_error "negative --jobs" "$repro" fig4 --jobs -2
expect_clean_error "missing --reps value" "$repro" fig4 --reps
expect_clean_error "missing --jobs value" "$repro" fig4 --jobs

if [ "$failures" -ne 0 ]; then
    note "$failures hiss_repro CLI check(s) failed"
    exit 1
fi
note "all hiss_repro CLI checks passed"
