package profile

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distda/internal/trace"
)

// -update regenerates the golden files under testdata/ from the current
// export output. Run `go test ./internal/profile -update` after an
// intentional schema change, then review the diff like any other code.
var update = flag.Bool("update", false, "rewrite the golden files")

// shardA/shardB/shardC build per-cell profilers with deliberately
// overlapping keys, the shape Merge sees when folding a parallel experiment
// matrix: the same component appears in several shards, some keys exist in
// only one shard, and histograms and counters overlap.
func shardA() *Profiler {
	p := New()
	p.AddRun(1000)
	c := p.Component("core", "core:0")
	c.AddBusy(300)
	c.AddStall(50)
	c.AddEvents(120)
	c.AddEnergy(42.5)
	p.Component("dram", "chan0").AddBusy(200)
	r := p.Region("fdtd-2d", "r0")
	r.AddLaunch(10, 40, 200, 5)
	r.AddComponent("core:0", 180)
	q := p.Hist("queue.buffer.buf0.occ", "occupancy")
	for i := 0; i < 8; i++ {
		q.Observe(float64(i))
	}
	p.Hist("latency.au.fill_lat", "base-cycle fill latency").Observe(30)
	p.Add("dram.reads", 5)
	tr := trace.New()
	tc := tr.Component("host.cpu")
	tc.Span("offload", 0, 100)
	tc.Span("offload", 200, 50)
	tc.Instant("flush", 10)
	p.AbsorbTrace(tr)
	return p
}

func shardB() *Profiler {
	p := New()
	p.AddRun(2000)
	p.Component("core", "core:0").AddBusy(700)
	p.Component("core", "core:1").AddEvents(9)
	r := p.Region("fdtd-2d", "r0")
	r.AddLaunch(20, 60, 400, 15)
	r.AddComponent("core:0", 150)
	r.AddComponent("core:1", 100)
	q := p.Hist("queue.buffer.buf0.occ", "occupancy")
	for i := 4; i < 16; i++ {
		q.Observe(float64(i))
	}
	lat := p.Hist("latency.au.fill_lat", "base-cycle fill latency")
	lat.Observe(90)
	lat.Observe(500)
	tr := trace.New()
	tr.Component("host.cpu").Span("offload", 0, 75)
	p.AbsorbTrace(tr)
	return p
}

func shardC() *Profiler {
	p := New()
	p.AddRun(500)
	p.Component("noc_link", "n0->n1").AddEvents(33)
	r := p.Region("bfs", "r0")
	r.AddLaunch(5, 0, 95, 0)
	r.AddComponent("fabric:0", 95)
	p.Hist("queue.buffer.buf1.occ", "occupancy").Observe(2)
	p.Add("dram.reads", 7)
	return p
}

// merged folds the three shards in the given order into a fresh profiler.
func merged(order ...func() *Profiler) *Profiler {
	p := New()
	for _, mk := range order {
		p.Merge(mk())
	}
	return p
}

func TestExportGolden(t *testing.T) {
	p := merged(shardA, shardB, shardC)
	outputs := map[string]string{}

	var stats bytes.Buffer
	if err := p.WriteStats(&stats); err != nil {
		t.Fatal(err)
	}
	outputs["stats"] = stats.String()

	var folded bytes.Buffer
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	outputs["folded"] = folded.String()

	outputs["breakdown"] = p.LatencyBreakdown().Render()

	for name, got := range outputs {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/profile -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("export mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}
		})
	}
}

// TestMergeOrderInvariance pins the commutativity contract that lets the
// experiment matrix fold per-cell profilers at any worker count: every merge
// order produces byte-identical exports, counters and histograms included.
func TestMergeOrderInvariance(t *testing.T) {
	orders := [][]func() *Profiler{
		{shardA, shardB, shardC},
		{shardC, shardB, shardA},
		{shardB, shardA, shardC},
	}
	var ref string
	for i, order := range orders {
		p := merged(order...)
		var stats, folded bytes.Buffer
		if err := p.WriteStats(&stats); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteFolded(&folded); err != nil {
			t.Fatal(err)
		}
		got := stats.String() + "\n===\n" + folded.String() + "\n===\n" + p.LatencyBreakdown().Render()
		if c := p.Counters()["dram.reads"]; c != 12 {
			t.Errorf("merge order %d: counter dram.reads = %d, want 5+7", i, c)
		}
		if h := p.Hists()[0].Snapshot(); h.N != 3 || h.Max != 500 {
			t.Errorf("merge order %d: latency histogram = %+v, want 3 samples, max 500", i, h)
		}
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Errorf("merge order %d produced different exports", i)
		}
	}
}

func TestNilProfilerIsSafeAndDisabled(t *testing.T) {
	var p *Profiler
	if p.Enabled() {
		t.Error("nil profiler reports enabled")
	}
	// Every handle off a nil profiler is nil and every record call no-ops.
	c := p.Component("core", "core:0")
	c.AddBusy(1)
	c.AddStall(1)
	c.AddEvents(1)
	c.AddEnergy(1)
	r := p.Region("k", "r")
	r.AddLaunch(1, 2, 3, 4)
	r.AddComponent("core:0", 5)
	if r.Total() != 0 {
		t.Error("nil region has nonzero total")
	}
	h := p.Hist("queue.buffer.buf0.occ", "occupancy")
	h.Observe(3)
	if s := h.Snapshot(); s.N != 0 {
		t.Error("nil histogram recorded samples")
	}
	p.Add("dram.reads", 1)
	p.AddRun(100)
	p.AbsorbTrace(trace.New())
	p.Merge(New())
	if p.Components() != nil || p.Regions() != nil || p.Hists() != nil || p.Spans() != nil || p.Counters() != nil {
		t.Error("nil profiler returned non-nil listings")
	}

	var stats bytes.Buffer
	if err := p.WriteStats(&stats); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats.String(), "profiling disabled") {
		t.Errorf("nil stats dump missing disabled marker:\n%s", stats.String())
	}
	var folded bytes.Buffer
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	if folded.Len() != 0 {
		t.Errorf("nil folded output not empty: %q", folded.String())
	}
	if out := p.LatencyBreakdown().Render(); !strings.Contains(out, "profiling disabled") {
		t.Errorf("nil breakdown missing disabled note:\n%s", out)
	}
}

func TestAbsorbTraceAggregation(t *testing.T) {
	tr := trace.New()
	c := tr.Component("engine")
	c.Span("run", 0, 10)
	c.Span("run", 20, 30)
	c.Instant("wakeup", 5)
	c.Instant("wakeup", 6)
	p := New()
	p.AbsorbTrace(tr)
	spans := p.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	byName := map[string]*SpanAgg{}
	for _, a := range spans {
		byName[a.Name] = a
	}
	run := byName["run"]
	if run == nil || run.Count != 2 || run.Cycles != 40 || run.Instants != 0 {
		t.Errorf("run aggregate = %+v, want count 2 cycles 40", run)
	}
	wake := byName["wakeup"]
	if wake == nil || wake.Instants != 2 || wake.Count != 0 {
		t.Errorf("wakeup aggregate = %+v, want 2 instants", wake)
	}
}

func TestFoldedStacksSumToRegionTotal(t *testing.T) {
	// Every attributed cycle appears exactly once: the folded lines of a
	// region sum to Region.Total() when the component attribution fits
	// inside the execute window.
	p := New()
	r := p.Region("k", "r0")
	r.AddLaunch(10, 40, 200, 5)
	r.AddComponent("core:0", 120)
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed folded line %q", line)
		}
		var n int64
		for _, ch := range fields[1] {
			n = n*10 + int64(ch-'0')
		}
		sum += n
	}
	if sum != r.Total() {
		t.Errorf("folded stacks sum to %d, want region total %d\n%s", sum, r.Total(), buf.String())
	}
}
