#!/bin/bash
# Builds the benchmark driver into the checkout's .bench_build directory
# and runs it. Everything the build and the run write stays under
# .bench_build, the Go build cache included, so a fresh checkout builds
# from source and nothing outside the checkout is touched.
#
#   bash bench/run.sh --workload wire-sync --seed 1 --seconds 8 --trace 0
#   bash bench/run.sh -seed 1            # all five workloads, human table
#   bash bench/run.sh -seed 1 -agree     # two sets, compared to the bounds
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/smrbench" .)
exec "$build/bin/smrbench" -root "$root" "$@"
