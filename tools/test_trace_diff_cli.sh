#!/usr/bin/env bash
# trace_diff command-line contract: --context parses strictly, so a
# non-integer or negative value is a usage error (exit 2 with a
# "trace_diff:" diagnostic), never a silent 0. Registered in ctest
# as trace_diff_cli.
set -u

diff_bin="$1"
file="${BASH_SOURCE[0]}" # Any readable file; diffed against itself.
failures=0

note() { printf '%s\n' "$*"; }

expect_usage_error() {
    desc="$1"; pattern="$2"; shift 2
    out=$("$diff_bin" "$file" "$file" "$@" 2>&1); code=$?
    if [ "$code" -eq 2 ] && printf '%s' "$out" | grep -q -- "$pattern"; then
        note "ok: $desc"
    else
        note "FAIL: $desc (exit $code): $out"
        failures=$((failures + 1))
    fi
}

out=$("$diff_bin" "$file" "$file" --context 5 2>&1); code=$?
if [ "$code" -eq 0 ]; then
    note "ok: identical files with --context 5 exit 0"
else
    note "FAIL: identical files with --context 5 (exit $code): $out"
    failures=$((failures + 1))
fi

expect_usage_error "non-integer --context" \
    "--context: 'abc' is not an integer" --context abc
expect_usage_error "negative --context" "trace_diff:" --context -1
expect_usage_error "missing --context value" "trace_diff:" --context

if [ "$failures" -ne 0 ]; then
    note "$failures trace_diff CLI check(s) failed"
    exit 1
fi
note "all trace_diff CLI checks passed"
