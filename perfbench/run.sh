#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in, then runs
# it from the checkout root with the given arguments:
#
#   bash perfbench/run.sh --workload sweep-warm --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every scratch file live under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout, and the
# build never touches the network. Build output goes to stderr so the
# last line of stdout stays the benchmark's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

# XDG_CONFIG_HOME keeps the go command's config and telemetry files in
# the build directory too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" -workdir "$build/perfbench-work" "$@"
