#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark program
# from source into .bench_build/ (git-ignored) and runs it from the
# repository root with the arguments given. Every file the Go toolchain
# writes (build cache included) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOENV=off
export XDG_CONFIG_HOME="$out/config" # where the toolchain keeps its telemetry counters
(cd "$here" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" -root . -build-dir .bench_build "$@"
