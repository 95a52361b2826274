#!/bin/sh
# Prints the size every simplicity PR quotes, so it has one definition:
# the non-test Go lines outside bench/, .bench_build/ and testdata/,
# then the engine's own share of them (internal/mapreduce and its
# remote package), then the five largest of those files.
#
# Usage: scripts/size.sh
set -e
cd "$(dirname "$0")/.."

files() {
    find . -name '*.go' -not -name '*_test.go' \
        -not -path './bench/*' -not -path './.bench_build/*' -not -path '*/testdata/*'
}

echo "non-test Go lines: $(files | xargs cat | wc -l)"
echo "engine (internal/mapreduce + remote): $(files | grep '^\./internal/mapreduce/' | xargs cat | wc -l)"
echo "largest files:"
files | xargs wc -l | grep -v ' total$' | sort -rn | head -5
