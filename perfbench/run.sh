#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root; every argument goes to the benchmark binary:
#
#   bash perfbench/run.sh --workload panel --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, CPU
# profiles, span files) stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/study || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a realtracer checkout (go.mod, internal/study or perfbench/go.mod missing)" >&2
	exit 2
fi

command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin" # Go's default install location

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
