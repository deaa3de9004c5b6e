#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from the
# root of a checkout; every argument goes to the benchmark:
#
#   bash bench/run.sh --workload gp-4k --seed 1 --seconds 20 --trace 0
#
# The build, the Go build cache and trace output stay inside the checkout,
# under .bench_build/. Outside a full checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$out/gbbench" .)
exec "$out/gbbench" "$@"
