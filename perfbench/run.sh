#!/usr/bin/env bash
# Builds loopmapd and the benchmark from source, then runs one benchmark:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Build outputs, the Go build
# cache and the durable store live under $CARGO_TARGET_DIR (default
# .bench_build), inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOPROXY=off

go build -o "$out/bin/loopmapd" ./cmd/loopmapd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/loopmapd" -workdir "$out" "$@"
