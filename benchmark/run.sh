#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json: builds the benchmark program
# from the checkout's sources and runs it with the driver's arguments
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the Go toolchain writes (build cache, module cache, binaries)
# stays inside the checkout, under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTMPDIR="$root/.bench_build/tmp"
export GOPROXY=off GOFLAGS=-modcacherw
mkdir -p "$root/.bench_build/bin" "$GOTMPDIR"
(cd "$root/benchmark" && go build -o "$root/.bench_build/bin/benchmark" .)
cd "$root"
exec "$root/.bench_build/bin/benchmark" "$@"
