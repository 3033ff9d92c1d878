package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Metric names, in the order BENCHMARK.json lists them. A -trace 0 run
// prints every end-to-end metric; a -trace 1 run prints every per-layer
// metric, with 0 for a layer the workload does not exercise.
var (
	endToEndMetrics = []string{
		"setup_s", "wall_s", "cpu_s", "peak_rss_mb", "sim_mips",
		"jobs_per_s", "job_p50_ms", "job_p99_ms",
	}
	perLayerMetrics = []string{
		"workloads.gen_ms",
		"compiler.compile_ms", "compiler.compiles",
		"artifact.compile_hit_ratio", "artifact.result_hit_ratio",
		"sim.run_ms", "sim.ns_per_cycle", "sim.us_per_launch",
		"sim.allocs_per_cell", "sim.alloc_mb_per_cell",
		"sim.cycles", "sim.launches", "sim.instructions",
		"ir.validate_ms", "ir.validate_share",
		"exp.cell_p50_ms", "exp.cell_max_ms", "exp.worker_busy_ratio",
		"report.render_ms",
		"serve.submit_ms", "serve.wait_ms", "serve.result_ms",
		"serve.hit_p50_ms", "serve.miss_p50_ms", "serve.queue_wait_ms", "serve.coalesced",
		"go.gc_cycles", "go.gc_pause_ms", "go.alloc_mb",
		"bench.trace_overhead_pct",
	}
	metricUnits = map[string]string{
		"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "sim_mips": "MIPS",
		"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p99_ms": "ms",

		"workloads.gen_ms":    "ms",
		"compiler.compile_ms": "ms", "compiler.compiles": "count",
		"artifact.compile_hit_ratio": "ratio", "artifact.result_hit_ratio": "ratio",
		"sim.run_ms": "ms", "sim.ns_per_cycle": "ns", "sim.us_per_launch": "us",
		"sim.allocs_per_cell": "count", "sim.alloc_mb_per_cell": "MB",
		"sim.cycles": "count", "sim.launches": "count", "sim.instructions": "count",
		"ir.validate_ms": "ms", "ir.validate_share": "ratio",
		"exp.cell_p50_ms": "ms", "exp.cell_max_ms": "ms", "exp.worker_busy_ratio": "ratio",
		"report.render_ms": "ms",
		"serve.submit_ms":  "ms", "serve.wait_ms": "ms", "serve.result_ms": "ms",
		"serve.hit_p50_ms": "ms", "serve.miss_p50_ms": "ms", "serve.queue_wait_ms": "ms",
		"serve.coalesced": "count",
		"go.gc_cycles":    "count", "go.gc_pause_ms": "ms", "go.alloc_mb": "MB",
		"bench.trace_overhead_pct": "%",
	}
)

// report collects one run's outcome: work attempted and failed, whether
// every output checked out, and the metric values by name.
type report struct {
	attempted, failed int
	problems, notes   []string
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail records a wrong or failed output; the run then reports
// correct=false and exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// note adds an informational line to the human-readable output.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints one "name value unit" line per metric of the selected set,
// then the JSON result object as the last line.
func (r *report) write(w io.Writer, names []string) error {
	line := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "WRONG: %s\n", p)
	}
	for _, n := range names {
		v := r.values[n]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, v, metricUnits[n])
		line.Metrics[n] = metricValue{Value: v, Unit: metricUnits[n]}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for no samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := nearestRank(len(s), p)
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the middle value of xs, or the mean of the two middle
// values for an even count (0 for no samples).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[n/2] + s[(n-1)/2]) / 2
}

// tailReportable reports whether the p-th percentile of n samples has at
// least ten samples beyond it, the rule for quoting a tail percentile.
func tailReportable(n int, p float64) bool {
	return n-nearestRank(n, p) >= 10
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
// The epsilon keeps float rounding (0.99*100 = 99.00000000000001) from
// pushing an exact rank up by one.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailPercentile returns the p-th percentile of xs, lowered as far as
// needed to keep ten samples beyond it.
func tailPercentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n <= 10 || tailReportable(n, p) {
		return percentile(xs, p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11] // rank n-10
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
