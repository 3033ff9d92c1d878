#!/bin/sh
# bench_check.sh — compare bench snapshots (distda-bench/v2, written by
# scripts/bench.sh) of a baseline and a current tree and fail when any gated
# benchmark regressed beyond the threshold. POSIX sh + awk only.
#
# Usage:
#   sh scripts/bench_check.sh BASELINE.json CURRENT.json [PATTERN] [MAX_RATIO]
#   sh scripts/bench_check.sh "base-1.json base-2.json" "head-1.json head-2.json" ...
#
#   BASELINE / CURRENT  one snapshot each, or a space-separated list of
#              snapshots (rounds) per side; each side is summarized by its
#              per-benchmark minimum over its rounds
#   PATTERN    extended-regex over benchmark names to gate on
#              (default: the engine-loop, matrix, executor, PIM,
#              headline, launch-path and host-only benchmarks)
#   MAX_RATIO  fail when current / baseline exceeds this
#              (default 1.15, i.e. >15% slower fails)
#
# Each benchmark is compared by its fastest sample (ns_min) when both
# sides record one: the minimum of a few samples on a shared host is
# far steadier than their mean, which one descheduled sample can inflate.
# A benchmark missing ns_min on either side (an older snapshot) falls back
# to the mean (ns_per_op) on both.
#
# Benchmarks present in only one snapshot are reported but never fail the
# check (new benchmarks have no baseline; removed ones have no current).
# CI runs this as the bench regression gate; see .github/workflows/ci.yml
# for the documented override when a regression is intentional.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 BASELINE.json CURRENT.json [PATTERN] [MAX_RATIO]" >&2
    exit 2
fi
BASE=$1
CUR=$2
PATTERN=${3:-'^Benchmark(EngineLoop|ReproMatrix|BuildMatrix|Executors|PIMWorkload|Headline|LaunchPath|HostOnly)'}
MAX=${4:-1.15}

# Each benchmark object is emitted on its own line by bench.sh, so a
# line-oriented awk extraction of (name, min, mean) is reliable for our own
# files. Over several snapshots, min and mean are each the minimum across
# the snapshots that record the benchmark; a min missing from any of them
# prints as "-".
extract() {
    # $1 stays unquoted: it is a space-separated list of snapshot files.
    awk '
    /"name":/ {
        name = ""; min = "-"; mean = ""
        if (match($0, /"name": "[^"]*"/))
            name = substr($0, RSTART + 9, RLENGTH - 10)
        if (match($0, /"ns_min": [0-9.]+/))
            min = substr($0, RSTART + 10, RLENGTH - 10)
        if (match($0, /"ns_per_op": [0-9.]+/))
            mean = substr($0, RSTART + 13, RLENGTH - 13)
        if (name == "" || mean == "") next
        if (!(name in bmean)) {
            order[++n] = name; bmin[name] = min; bmean[name] = mean
            next
        }
        if (min == "-" || bmin[name] == "-") bmin[name] = "-"
        else if (min + 0 < bmin[name] + 0) bmin[name] = min
        if (mean + 0 < bmean[name] + 0) bmean[name] = mean
    }
    END { for (i = 1; i <= n; i++) print order[i], bmin[order[i]], bmean[order[i]] }' $1
}

T=$(mktemp)
trap 'rm -f "$T"' EXIT
extract "$BASE" > "$T"

extract "$CUR" | awk -v basefile="$T" -v pattern="$PATTERN" -v max="$MAX" '
BEGIN {
    while ((getline line < basefile) > 0) {
        split(line, f, " ")
        bmin[f[1]] = f[2]
        bmean[f[1]] = f[3]
    }
    close(basefile)
    fails = 0
}
{
    name = $1
    if (!(name in bmean)) {
        printf "bench_check: %-50s new (no baseline)\n", name
        next
    }
    seen[name] = 1
    if ($2 != "-" && bmin[name] != "-") {
        b = bmin[name] + 0; cur = $2 + 0; stat = "ns_min"
    } else {
        b = bmean[name] + 0; cur = $3 + 0; stat = "ns/op"
    }
    if (b <= 0) next
    ratio = cur / b
    gated = (name ~ pattern)
    status = "ok"
    if (ratio > max && gated) { status = "FAIL"; fails++ }
    else if (ratio > max)     { status = "slower (ungated)" }
    printf "bench_check: %-50s %12.1f -> %12.1f %-6s %.3fx  %s\n", name, b, cur, stat, ratio, status
}
END {
    for (name in bmean)
        if (!(name in seen))
            printf "bench_check: %-50s removed (baseline only)\n", name
    if (fails) {
        printf "bench_check: %d gated benchmark(s) regressed beyond %.2fx\n", fails, max
        exit 1
    }
    printf "bench_check: OK (gate %.2fx on /%s/)\n", max, pattern
}'
