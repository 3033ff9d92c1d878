#!/usr/bin/env bash
# Builds the benchmark and cmd/distda-serve from this checkout, then runs
# the benchmark. Run it from the repository root:
#
#   bash bench/run.sh --workload serve-mixed --seed 1 --seconds 28 --trace 0
#
# Every build product, the Go build cache and traced-run output stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$out/bin/distda-bench" .)
go build -o "$out/bin/distda-serve" ./cmd/distda-serve

exec "$out/bin/distda-bench" -serve-bin "$out/bin/distda-serve" -out "$out/trace" "$@"
