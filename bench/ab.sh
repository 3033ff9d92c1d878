#!/usr/bin/env bash
# Same-host A/B of two commits on the end-to-end benchmark.
#
#   bash bench/ab.sh BASE HEAD [PAIRS=10]
#
# Exports BASE and HEAD with git archive into a temporary directory and
# copies HEAD's bench/ and BENCHMARK.json into both trees, so both sides
# run identical benchmark code. It then runs PAIRS interleaved pairs per
# workload, alternating which side goes first, with the same seed on both
# sides of a pair. For every workload and end-to-end metric it prints each
# side's median and quartiles and the pairs HEAD won, and calls a gain only
# when at least 10 pairs completed, HEAD won at least 9 in 10 of them, and
# the medians differ by more than BASE's interquartile range. A metric worse than BASE by more than its
# BENCHMARK.json bound is a regression. Each run measures for the
# run_seconds that BENCHMARK.json fixes.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: bash bench/ab.sh BASE HEAD [PAIRS=10]" >&2
    exit 2
fi
base_rev=$1 head_rev=$2 pairs=${3:-10}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for side in base head; do
    rev=$base_rev
    [ $side = head ] && rev=$head_rev
    mkdir -p "$work/$side"
    git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
done
rm -rf "$work/base/bench"
cp -R "$work/head/bench" "$work/base/bench"
cp "$work/head/BENCHMARK.json" "$work/base/BENCHMARK.json"

spec=$work/head/BENCHMARK.json
secs=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")
workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")

mkdir -p "$work/results"
run_side() { # side workload seed
    (cd "$work/$1" && bash bench/run.sh --workload "$2" --seed "$3" --seconds "$secs" --trace 0) \
        | tail -n 1 | sed "s/^/$3 /" >>"$work/results/$1.$2" || true
}
for pair in $(seq 1 "$pairs"); do
    for w in $workloads; do
        if [ $((pair % 2)) = 1 ]; then
            run_side base "$w" "$pair"; run_side head "$w" "$pair"
        else
            run_side head "$w" "$pair"; run_side base "$w" "$pair"
        fi
        echo "pair $pair/$pairs $w done" >&2
    done
done

python3 - "$spec" "$work/results" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
res_dir = sys.argv[2]

def load(side, w):
    out = {}
    for line in open(f"{res_dir}/{side}.{w}"):
        seed, obj = line.split(" ", 1)
        try:
            out[int(seed)] = json.loads(obj)
        except ValueError:
            print(f"   {side} seed {seed}: run failed without a result")
    return out

for w in (x["name"] for x in spec["workloads"]):
    base, head = load("base", w), load("head", w)
    seeds = sorted(set(base) & set(head))
    print(f"== {w} ({len(seeds)} pairs)")
    for side, runs in (("base", base), ("head", head)):
        bad = [s for s in seeds if not runs[s]["correct"] or runs[s]["failed"]]
        if bad:
            print(f"   {side}: wrong output or failures on seeds {bad}")
    print(f"   {'metric':14s} {'base q1/med/q3':>30s} {'head q1/med/q3':>30s} {'wins':>6s}  verdict")
    for m in spec["end_to_end"]:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        b = [base[s]["metrics"][name]["value"] for s in seeds]
        h = [head[s]["metrics"][name]["value"] for s in seeds]
        bq, hq = statistics.quantiles(b, n=4), statistics.quantiles(h, n=4)
        bm, hm = statistics.median(b), statistics.median(h)
        wins = sum((hv < bv) if lower else (hv > bv) for bv, hv in zip(b, h))
        worse = (hm - bm) / bm if lower else (bm - hm) / bm
        if len(seeds) >= 10 and wins >= 0.9 * len(seeds) and abs(hm - bm) > bq[2] - bq[0]:
            verdict = "gain"
        elif worse > bound:
            verdict = f"REGRESSION ({100*worse:.1f}% > bound {100*bound:.0f}%)"
        elif (bq[2] - bq[0]) / bm > bound:
            verdict = "unresolved (base spread wider than bound)"
        else:
            verdict = "no change beyond bound"
        fmt = lambda q, med: f"{q[0]:.4g}/{med:.4g}/{q[2]:.4g}"
        print(f"   {name:14s} {fmt(bq, bm):>30s} {fmt(hq, hm):>30s} {wins:>3d}/{len(seeds):<2d}  {verdict}")
EOF
