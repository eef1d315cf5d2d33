#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed through:
#
#   bash perfbench/run.sh --workload hotlock --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare base.jsonl head.jsonl
#
# Everything the build and the run write stays in the build directory
# (CARGO_TARGET_DIR if set, else .bench_build): the binary, the Go build
# cache, scratch manifests and span files. Without the repository around
# perfbench/ (the module replaces "inpg" with ../) the build fails and
# the script exits non-zero before printing anything.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/home"

# Keep the toolchain's caches, config and telemetry inside the build dir.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
case "${1:-}" in
compare | golden) exec "$build/perfbench" "$@" ;;
esac
exec "$build/perfbench" -work "$build/perfbench-work" "$@"
