#!/usr/bin/env bash
# Builds cmd/ahs-serve and the benchmark program from this checkout, then
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash ahsbench/run.sh --workload paper-figure --seed 1 --seconds 10 --trace 0
#
# Everything the builds and runs leave behind (Go build cache, binaries,
# store directories, span files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ahs-serve" || ! -d "$root/internal/service" ]]; then
	echo "ahsbench: $root is not an ahs source tree (cmd/ahs-serve missing); run from the repository root" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's local telemetry in the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/ahs-serve" ./cmd/ahs-serve
(cd "$root/ahsbench" && go build -o "$out/bin/ahsbench" .)

exec "$out/bin/ahsbench" -root "$root" -serve "$out/bin/ahs-serve" "$@"
