#!/bin/sh
# bench.sh — run the repository's Go benchmarks and emit a machine-readable
# snapshot as BENCH_<date>.json in the repo root (schema documented at the
# end of docs/results-bench.txt). POSIX sh + awk only, no extra tooling.
#
# Usage:
#   sh scripts/bench.sh                 # default: 5 samples of -benchtime=1x
#   SAMPLES=10 sh scripts/bench.sh      # more samples for tighter stddev
#   BENCHTIME=5x sh scripts/bench.sh    # more iterations per sample
#   BENCH='^BenchmarkEngineLoop' sh scripts/bench.sh   # only matching benchmarks
#   OUT=custom.json sh scripts/bench.sh
#
# Each benchmark runs SAMPLES times (go test -count); the snapshot records
# the per-benchmark mean, sample standard deviation, min and max of ns/op,
# so a reader can tell a real regression from scheduler noise without
# rerunning. Schema distda-bench/v2 (v1 recorded a single sample).
#
# The date in the default filename is UTC (YYYY-MM-DD); rerunning on the same
# day overwrites that day's snapshot, which is the intent — one file per day,
# tracked in git when a PR wants to record a before/after.
set -eu

cd "$(dirname "$0")/.."

BENCH=${BENCH:-.}
BENCHTIME=${BENCHTIME:-1x}
SAMPLES=${SAMPLES:-5}
DATE=$(date -u +%Y-%m-%d)
OUT=${OUT:-BENCH_${DATE}.json}
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo "== go test -p 1 -run=NONE -bench=$BENCH -benchtime=$BENCHTIME -count=$SAMPLES ./..." >&2
# -run=NONE skips unit tests; benchmarks still run. -p 1 serializes package
# test binaries: by default go test runs several packages concurrently,
# which corrupts wall-clock benchmark numbers. Benchmark failures must fail
# the script, so no `|| true`.
go test -p 1 -run=NONE -bench="$BENCH" -benchtime="$BENCHTIME" -count="$SAMPLES" ./... > "$RAW"

GOVERSION=$(go env GOVERSION)
GOOS=$(go env GOOS)
GOARCH=$(go env GOARCH)
STAMP=$(date -u +%Y-%m-%dT%H:%M:%SZ)

# Parse the standard benchmark output:
#   pkg: distda/internal/engine
#   BenchmarkName-8  5  123456 ns/op [ 17 B/op  2 allocs/op ]
# repeated SAMPLES times per benchmark, into one JSON object per benchmark
# with mean/stddev/min/max over the samples, tagged with its package.
awk -v benchtime="$BENCHTIME" -v stamp="$STAMP" \
    -v goversion="$GOVERSION" -v goos="$GOOS" -v goarch="$GOARCH" '
/^pkg: / { pkg = $2; next }
/^Benchmark/ && NF >= 4 && $4 == "ns/op" {
    name = $1
    procs = 1
    if (match(name, /-[0-9]+$/)) {
        procs = substr(name, RSTART + 1) + 0
        name = substr(name, 1, RSTART - 1)
    }
    key = pkg SUBSEP name
    if (!(key in count)) { order[++nkeys] = key; pkgof[key] = pkg; nameof[key] = name; procsof[key] = procs }
    count[key]++
    ns = $3 + 0
    sum[key] += ns
    sumsq[key] += ns * ns
    if (count[key] == 1 || ns < minv[key]) minv[key] = ns
    if (count[key] == 1 || ns > maxv[key]) maxv[key] = ns
    for (i = 5; i + 1 <= NF; i += 2) {
        if ($(i + 1) == "B/op")      { bsum[key] += $i; bn[key]++ }
        if ($(i + 1) == "allocs/op") { asum[key] += $i; an[key]++ }
    }
    next
}
END {
    printf "{\n"
    printf "  \"schema\": \"distda-bench/v2\",\n"
    printf "  \"date\": \"%s\",\n", stamp
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchmarks\": ["
    for (j = 1; j <= nkeys; j++) {
        key = order[j]
        n = count[key]
        mean = sum[key] / n
        sd = 0
        if (n > 1) {
            var = (sumsq[key] - sum[key] * sum[key] / n) / (n - 1)
            if (var > 0) sd = sqrt(var)
        }
        if (j > 1) printf ","
        printf "\n    {\"package\": \"%s\", \"name\": \"%s\", \"procs\": %d, \"samples\": %d", \
            pkgof[key], nameof[key], procsof[key], n
        printf ", \"ns_per_op\": %.1f, \"ns_stddev\": %.1f, \"ns_min\": %.1f, \"ns_max\": %.1f", \
            mean, sd, minv[key], maxv[key]
        if (bn[key]) printf ", \"bytes_per_op\": %.1f", bsum[key] / bn[key]
        if (an[key]) printf ", \"allocs_per_op\": %.1f", asum[key] / an[key]
        printf "}"
    }
    printf "\n  ]\n}\n"
}' "$RAW" > "$OUT"

COUNT=$(grep -c '"name"' "$OUT" || true)
echo "bench: wrote $COUNT benchmark(s) x $SAMPLES sample(s) to $OUT" >&2
