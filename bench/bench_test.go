package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"distda/internal/artifact"
	"distda/internal/workloads"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median([7]) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median([4 1 3 2]) = %v, want 2.5", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want bool
	}{{1000, true}, {2000, true}, {999, false}, {100, false}} {
		if got := tailReportable(c.n, 99); got != c.want {
			t.Errorf("tailReportable(%d, 99) = %v, want %v", c.n, got, c.want)
		}
	}
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	// 100 samples: p99 would leave 1 beyond it, so the tail drops to rank 90.
	if got := tailPercentile(xs, 99); got != 90 {
		t.Errorf("tailPercentile(1..100, 99) = %v, want 90", got)
	}
	for i := 101; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	if got := tailPercentile(xs, 99); got != 990 {
		t.Errorf("tailPercentile(1..1000, 99) = %v, want 990", got)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	pass := tr.add(0, "bench.pass", "", 0, at(0), at(100))
	// Two cells on two goroutines overlap in [20, 60]; together they cover
	// [10, 80] of the pass.
	a := tr.add(pass, "bench.cell", "a", 1, at(10), at(60))
	tr.add(pass, "bench.cell", "b", 2, at(20), at(80))
	tr.add(a, "sim.RunPrecompiled", "a", 1, at(10), at(50))
	got := map[string]time.Duration{}
	for _, row := range tr.selfTimes() {
		got[row.layer] = row.self
	}
	// bench: pass 100-70=30, cell a 50-40=10, cell b 60.
	if got["bench"] != 100*time.Millisecond || got["sim"] != 40*time.Millisecond {
		t.Errorf("self times %v, want bench 100ms, sim 40ms", got)
	}
	if d, n := tr.spanTotal(a, "sim.RunPrecompiled"); d != 40*time.Millisecond || n != 1 {
		t.Errorf("spanTotal under cell a = %v, %d", d, n)
	}
}

func TestJobSequenceDeterministicPerSeed(t *testing.T) {
	a, b := jobSequence(7, 1000), jobSequence(7, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different job sequences")
	}
	if reflect.DeepEqual(a, jobSequence(8, 1000)) {
		t.Fatal("different seeds gave the same job sequence")
	}
	// Repeats plus chance collisions make about 43% of the jobs repeat an
	// earlier spec, on every seed.
	for seed := int64(1); seed <= 5; seed++ {
		seen := map[string]bool{}
		repeats := 0
		for _, s := range jobSequence(seed, 1000) {
			if seen[specKey(s)] {
				repeats++
			}
			seen[specKey(s)] = true
		}
		if f := float64(repeats) / 1000; f < 0.38 || f > 0.48 {
			t.Errorf("seed %d: repeat fraction %.3f outside [0.38, 0.48]", seed, f)
		}
	}
}

func TestDigestIgnoresCellOrder(t *testing.T) {
	keys := make([]string, len(launchStormCells))
	for i, c := range launchStormCells {
		keys[i] = c.key()
	}
	digest := func(order []int) string {
		in, err := prepare(nil, 0, workloads.ScaleTest, launchStormCells, artifact.New(artifact.Config{}), true)
		if err != nil {
			t.Fatal(err)
		}
		st, err := runCells(nil, 0, in, order, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := resultsDigest(keys, st.results)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if a, b := digest([]int{0, 1, 2, 3}), digest([]int{3, 1, 0, 2}); a != b {
		t.Fatalf("digest depends on run order: %s vs %s", a, b)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, n := range append(append([]string(nil), endToEndMetrics...), perLayerMetrics...) {
		if !valid.MatchString(n) || len(n) > 64 {
			t.Errorf("metric name %q is not a valid name", n)
		}
		if seen[n] {
			t.Errorf("metric name %q used twice", n)
		}
		seen[n] = true
		if metricUnits[n] == "" {
			t.Errorf("metric %q has no unit", n)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []string) {
		var names []string
		for _, m := range got {
			names = append(names, m.Name)
			if m.Unit != metricUnits[m.Name] {
				t.Errorf("%s metric %s: unit %q in BENCHMARK.json, %q here", kind, m.Name, m.Unit, metricUnits[m.Name])
			}
		}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("%s metrics in BENCHMARK.json %v, here %v", kind, names, want)
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEndMetrics)
	check("per_layer", cfg.PerLayer, perLayerMetrics)
	var ws []string
	for _, w := range cfg.Workloads {
		ws = append(ws, w.Name)
	}
	if !reflect.DeepEqual(ws, workloadNames) {
		t.Errorf("workloads in BENCHMARK.json %v, here %v", ws, workloadNames)
	}
}

// TestQuickSmoke runs every workload at test scale, one pass and one
// round of 50 jobs, untraced and traced, against a freshly built
// distda-serve.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds distda-serve and runs all four workloads")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "distda-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/distda-serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build distda-serve: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		for _, tr := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-quick", "-workload", w, "-seed", "3", "-trace", tr,
				"-serve-bin", bin, "-out", dir}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w, tr, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w, err)
			}
			want := endToEndMetrics
			if tr == "1" {
				want = perLayerMetrics
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %+v", w, tr, res)
			}
			for _, m := range want {
				if v, ok := res.Metrics[m]; !ok || (tr == "0" && v.Value <= 0) {
					t.Errorf("%s trace=%s: metric %s missing, or an end-to-end value not positive: %+v", w, tr, m, v)
				}
			}
			if tr == "1" {
				for _, f := range []string{"trace.json", "layers.txt"} {
					if _, err := os.Stat(filepath.Join(dir, w, f)); err != nil {
						t.Errorf("%s: %v", w, err)
					}
				}
			}
		}
	}
}
