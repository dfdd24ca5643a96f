#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, e.g.
#
#   bash bench/run.sh --workload zoo-sim --seed 1 --seconds 28 --trace 0
#
# The benchmark binary and its Go build cache live under .bench_build/ in the
# checkout, so a run writes nothing outside it. See bench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/go-cache"
(cd bench && go build -o ../.bench_build/bench .)
exec .bench_build/bench "$@"
