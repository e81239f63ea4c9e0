#!/usr/bin/env bash
# Prints, per directory given, the number of Go source lines that are neither
# blank, nor a // comment line, nor in a _test.go file — the measure the
# simplicity PRs report before and after (subdirectories are not descended
# into; pass them explicitly).
#
#   scripts/loc.sh internal/db/plan internal/db/vec internal/db/exec
set -euo pipefail
total=0
for dir in "$@"; do
	n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + |
		sed -e 's/^[[:space:]]*//' | grep -v -e '^$' -e '^//' | wc -l)
	printf '%6d %s\n' "$n" "$dir"
	total=$((total + n))
done
printf '%6d total\n' "$total"
