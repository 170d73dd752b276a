#!/usr/bin/env bash
# Builds camperf from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash camperf/run.sh --workload io-rand --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Go's build cache, module cache and config
# are pointed under .bench_build so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/camperf"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$root/camperf" && go build -o "$out/camperf" .)
exec "$out/camperf" "$@"
