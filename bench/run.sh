#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of a checkout:
#
#   bash bench/run.sh --workload suite --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays in .bench_build/ under
# the checkout: the Go build cache (the first build fills it, later ones
# reuse it), the go command's configuration and telemetry directory, the
# binary, temporary files and traced runs' spans.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd bench && go build -o "$out/asymbench" .)
exec "$out/asymbench" "$@"
