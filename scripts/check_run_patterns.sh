#!/bin/sh
# Fails when an alternative of a `go test -run` pattern names no test in
# the given packages. A CI gate that selects its tests by name goes
# silent when one of them is renamed or deleted: `go test -run` matches
# nothing for that alternative and still passes. This runs
# `go test -list` for each alternative instead, and reports every one
# that lists nothing.
#
# Usage: scripts/check_run_patterns.sh 'TestA|TestB' ./pkg/ [./pkg2/ ...]
set -e
cd "$(dirname "$0")/.."
pattern=$1
shift
status=0
IFS='|'
for alt in $pattern; do
    unset IFS
    if ! go test -list "$alt" "$@" | grep -Eq '^(Test|Benchmark|Fuzz|Example)'; then
        echo "check_run_patterns.sh: -run alternative '$alt' matches no test in $*" >&2
        status=1
    fi
    IFS='|'
done
exit $status
