#!/usr/bin/env bash
# hiss_repro command-line contract: bad input must die cleanly with a
# "hiss_repro:" diagnostic and exit code 1 (not a crash, and never a
# silently reinterpreted run); --help/--list must exit 0. So must a
# result cache that cannot store a record. Registered in ctest as
# hiss_repro_cli.
set -u

repro="$1"
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

# Cache and shard flags. None of these may create the cache.
expect_clean_error "--shard without --cache" "$repro" fig4 --shard 0/2
expect_clean_error "--shard k not below K" \
    "$repro" fig4 --cache "$tmp/c" --shard 2/2
expect_clean_error "non-numeric --shard" \
    "$repro" fig4 --cache "$tmp/c" --shard x/4
expect_clean_error "--shard without /K" \
    "$repro" fig4 --cache "$tmp/c" --shard 1
expect_clean_error "zero --shard count" \
    "$repro" fig4 --cache "$tmp/c" --shard 0/0
expect_clean_error "missing --cache value" "$repro" fig4 --cache
touch "$tmp/file"
expect_clean_error "--cache naming a file" "$repro" fig4 --cache "$tmp/file"
if [ -e "$tmp/c" ]; then
    note "FAIL: a rejected command created its cache"
    failures=$((failures + 1))
fi

# A store that fails is a cache error, not a run failure: fill a
# cache, put a directory where each record goes, and run again.
"$repro" fig4 --reps 1 --jobs 2 --cache "$tmp/full" > /dev/null 2>&1
for rec in "$tmp/full"/*.rec; do
    rm "$rec" && mkdir "$rec"
done
out=$("$repro" fig4 --reps 1 --jobs 2 --cache "$tmp/full" 2>&1); code=$?
if [ "$code" -eq 1 ] && printf '%s' "$out" | grep -q "hiss_repro:.*\.rec'" \
    && ! printf '%s' "$out" | grep -q "run failed"; then
    note "ok: unwritable record exits 1 naming it"
else
    note "FAIL: unwritable record (exit $code): $out"
    failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
    note "$failures hiss_repro CLI check(s) failed"
    exit 1
fi
note "all hiss_repro CLI checks passed"
