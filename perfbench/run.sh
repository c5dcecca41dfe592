#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload serve-bulk --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ and .bench_out/ in that directory. Build output
# goes to standard error, so the last line of standard output is the
# benchmark's JSON result.
set -euo pipefail

root=$(pwd)
out=$root/.bench_build/perfbench
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/ntpbench" .) >&2
exec "$out/ntpbench" -out "$root/.bench_out" "$@"
