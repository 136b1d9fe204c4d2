#!/usr/bin/env bash
# Builds propviewd and the benchmark from this checkout, then runs the
# benchmark. Run from the repository root:
#
#   bash propbench/run.sh --workload ugf-point-delete --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, generated databases, server logs and
# span files all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOENV=off

go build -o "$out/propviewd" ./cmd/propviewd >&2
(cd propbench && go build -o "$out/propbench" .) >&2
exec "$out/propbench" -propviewd "$out/propviewd" -workdir "$out" "$@"
