#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload cold-eval --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The go command keeps its settings and telemetry under the user config
# directory; point it into the build directory too.
XDG_CONFIG_HOME="$out/config" go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
