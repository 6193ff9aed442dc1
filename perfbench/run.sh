#!/usr/bin/env bash
# Builds the benchmark and cmd/amoebad from this checkout's source, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload dir_read --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache and temporary files all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. Build
# output goes to standard error; the last line of standard output is the
# result object.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

# The benchmark module replaces the amoeba module with the directory
# above it; without the program's source there this fails, and so does
# the run.
(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/amoebad" amoeba/cmd/amoebad) >&2

exec "$out/perfbench" --amoebad "$out/amoebad" "$@"
