package exp

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"distda/internal/artifact"
	"distda/internal/trace"
	"distda/internal/workloads"
)

// renderAll flattens the matrix-backed tables into one comparable string.
func renderAll(m *Matrix) string {
	var b strings.Builder
	b.WriteString(m.Fig7EnergyEfficiency().Render())
	b.WriteString(m.Fig8CacheAccesses().Render())
	b.WriteString(m.Fig11bSpeedup().Render())
	b.WriteString(m.Headline().Render())
	b.WriteString(m.DataMovement().Render())
	return b.String()
}

// TestBuildResumeByteIdentical is the tentpole differential test: a run
// killed after N cells leaves a checkpoint from which resumed runs — at
// several worker counts, over a warm disk cache — render tables
// byte-identical to an uninterrupted serial run.
func TestBuildResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")

	// Reference: uninterrupted serial run (cold cache).
	ref, err := Build(context.Background(), Options{
		Scale:   workloads.ScaleTest,
		Workers: 1,
		Cache:   artifact.New(artifact.Config{Dir: cacheDir}),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(ref)

	// Interrupted run: the hook cancels the whole run after 10 started
	// cells; the checkpoint keeps whatever finished.
	ckpt := filepath.Join(dir, "checkpoint.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started int64
	_, err = Build(ctx, Options{
		Scale:      workloads.ScaleTest,
		Workers:    2,
		Cache:      artifact.New(artifact.Config{Dir: cacheDir}),
		Checkpoint: ckpt,
		Hook: func(hctx context.Context, workload, config string) error {
			if atomic.AddInt64(&started, 1) > 10 {
				cancel()
				return hctx.Err()
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("interrupted build reported success")
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no checkpoint after interruption: %v", err)
	}
	if !strings.Contains(string(raw), `"version": 2`) {
		t.Error("checkpoint missing version field")
	}

	// Resume from the partial checkpoint at several worker counts, each
	// over its own copy (a resumed run completes its checkpoint file).
	for _, workers := range []int{1, 4, 8} {
		path := filepath.Join(dir, "ck-"+string(rune('0'+workers))+".json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Build(context.Background(), Options{
			Scale:      workloads.ScaleTest,
			Workers:    workers,
			Cache:      artifact.New(artifact.Config{Dir: cacheDir}),
			Checkpoint: path,
		})
		if err != nil {
			t.Fatalf("resume with %d workers: %v", workers, err)
		}
		if got := renderAll(m); got != want {
			t.Errorf("resumed run (%d workers) diverged from the uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s",
				workers, got, want)
		}
	}
}

// TestBuildResumeSkipsCompletedCells re-runs over a complete checkpoint:
// nothing executes (the hook would notice) and the tables still render
// byte-identically — the pure-resume path.
func TestBuildResumeSkipsCompletedCells(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "checkpoint.json")
	ref, err := Build(context.Background(), Options{
		Scale:      workloads.ScaleTest,
		Workers:    1,
		Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(context.Background(), Options{
		Scale:      workloads.ScaleTest,
		Checkpoint: ckpt,
		Hook: func(ctx context.Context, workload, config string) error {
			t.Errorf("cell %s/%s ran despite a complete checkpoint", workload, config)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderAll(m), renderAll(ref); got != want {
		t.Error("fully resumed run diverged from the original")
	}
}

// TestBuildCellTimeoutDegrades hangs one cell past the per-cell deadline:
// the matrix completes, the cell renders n/a, and every other cell is
// present.
func TestBuildCellTimeoutDegrades(t *testing.T) {
	// The deadline must comfortably exceed any honest test-scale cell (they
	// take milliseconds, but -race inflates that >10x) while only the
	// deliberately hung cell waits it out.
	m, err := Build(context.Background(), Options{
		Scale:       workloads.ScaleTest,
		CellTimeout: 3 * time.Second,
		Hook: func(ctx context.Context, workload, config string) error {
			if workload == "fdtd-2d" && config == "Dist-DA-IO" {
				<-ctx.Done() // simulate a hung cell
				return ctx.Err()
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reason := m.Degraded["fdtd-2d"]["Dist-DA-IO"]; !strings.Contains(reason, "timeout") {
		t.Fatalf("degraded reason = %q, want a timeout", reason)
	}
	if m.DegradedCount() != 1 {
		t.Errorf("%d degraded cells, want exactly 1", m.DegradedCount())
	}
	if m.Res["fdtd-2d"]["Dist-DA-IO"] != nil {
		t.Error("degraded cell still has a result")
	}
	if m.Res["fdtd-2d"]["Dist-DA-F"] == nil || m.Res["bfs"]["Dist-DA-IO"] == nil {
		t.Error("healthy cells missing: degradation must not cascade")
	}
	rendered := m.Fig7EnergyEfficiency().Render()
	if !strings.Contains(rendered, "n/a") {
		t.Errorf("rendered table lacks the n/a cell:\n%s", rendered)
	}
}

// TestBuildRealTimeoutDegrades exercises the cooperative-cancellation path
// through the simulator itself (no hook blocking): an absurdly small
// deadline fires mid-simulation and the host aborts at a loop boundary.
func TestBuildRealTimeoutDegrades(t *testing.T) {
	m, err := Build(context.Background(), Options{
		Scale:       workloads.ScaleTest,
		Workers:     2,
		CellTimeout: 1 * time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.DegradedCount() == 0 {
		t.Fatal("no cell degraded under a 1ns deadline")
	}
}

// TestBuildHookErrorFailsBuild: a cell error that is not a timeout is a
// hard error naming the cell, not a degradation.
func TestBuildHookErrorFailsBuild(t *testing.T) {
	injected := errors.New("injected fault")
	_, err := Build(context.Background(), Options{
		Scale: workloads.ScaleTest,
		Hook: func(ctx context.Context, workload, config string) error {
			if workload == "bfs" && config == "Dist-DA-F" {
				return injected
			}
			return nil
		},
	})
	if !errors.Is(err, injected) {
		t.Fatalf("Build returned %v, want the injected error", err)
	}
	if !strings.Contains(err.Error(), "bfs on Dist-DA-F") {
		t.Errorf("error %q does not name the failing cell", err)
	}
}

// TestBuildFirstSerialErrorWins: when several cells fail, Build reports
// the one a serial run would have hit first, not the first to fail in
// time. The earlier cell is held back until the later one has failed.
func TestBuildFirstSerialErrorWins(t *testing.T) {
	first, second := errors.New("first cell"), errors.New("second cell")
	laterFailed := make(chan struct{})
	_, err := Build(context.Background(), Options{
		Scale:   workloads.ScaleTest,
		Workers: 2,
		Hook: func(ctx context.Context, workload, config string) error {
			switch {
			case workload == "disparity" && config == "OoO":
				<-laterFailed
				return first
			case workload == "disparity" && config == "Mono-CA":
				close(laterFailed)
				return second
			}
			return nil
		},
	})
	if !errors.Is(err, first) {
		t.Fatalf("Build returned %v, want the serially first cell's error", err)
	}
}

// TestBuildInputLifetime: every plan draws each cell's inputs as it
// dispatches the cell and drops them when the cell returns, so at every
// Progress event at most Workers+1 input sets are reachable (one per busy
// worker plus the next draw waiting for a free one) — not the whole plan.
// It covers the matrix (Build) and a plan of every simulated figure
// section (Render).
func TestBuildInputLifetime(t *testing.T) {
	const workers = 2
	var live atomic.Int64 // drawn sets whose largest array was not yet collected
	orig := drawInputs
	t.Cleanup(func() { drawInputs = orig })
	drawInputs = func(w *workloads.Workload) map[string][]float64 {
		data := orig(w)
		var big []float64
		for _, v := range data {
			if len(v) > len(big) {
				big = v
			}
		}
		if len(big) < 4 {
			// The finalizer of a tiny allocation may never run.
			t.Errorf("%s: largest input array has %d elements, too small to track", w.Name, len(big))
			return data
		}
		live.Add(1)
		runtime.SetFinalizer(&big[0], func(*float64) { live.Add(-1) })
		return data
	}
	plans := map[string]func(Options) (cells int, err error){
		"matrix": func(o Options) (int, error) {
			m, err := Build(context.Background(), o)
			if err != nil {
				return 0, err
			}
			return len(m.Workloads) * len(m.Configs), nil
		},
		"figures": func(o Options) (int, error) {
			sel := Selection{Figs: []string{"12a", "12b", "13", "14"}, Sens: true, OffChip: true, PIM: true, Ablations: true}
			sum, err := Render(context.Background(), io.Discard, sel, o)
			return sum.Cells, err
		},
	}
	for name, runPlan := range plans {
		t.Run(name, func(t *testing.T) {
			var maxLive int64
			events := 0
			total, err := runPlan(Options{
				Scale:   workloads.ScaleTest,
				Workers: workers,
				Progress: func(ProgressEvent) {
					events++
					if maxLive > workers+1 {
						return // already failed; don't wait again
					}
					// Finalizers run on their own goroutine after the
					// collection that found their array unreachable, so a
					// pending one can only overcount: collect until the
					// count is within the bound or a deadline passes.
					n := live.Load()
					for deadline := time.Now().Add(time.Second); n > workers+1 && time.Now().Before(deadline); n = live.Load() {
						runtime.GC()
						time.Sleep(time.Millisecond)
					}
					maxLive = max(maxLive, n)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if events != total {
				t.Fatalf("saw %d progress events, want %d", events, total)
			}
			if maxLive > workers+1 {
				t.Errorf("%d input sets reachable at a progress event, want at most %d", maxLive, workers+1)
			}
		})
	}
}

// TestTraceLifetime: each cell's tracer goes to Observe.TraceDone as soon
// as the cell has run, and the run keeps no reference to it, so at every
// Progress event at most Workers tracers are reachable (one per busy
// worker) — not one per cell of the plan. The probe is attached in
// TraceDone, so it watches the tracer from the moment the run hands it
// back. It covers the matrix (Build) and a plan of every simulated figure
// section (Render).
func TestTraceLifetime(t *testing.T) {
	const workers = 2
	plans := map[string]func(Options) (cells int, err error){
		"matrix": func(o Options) (int, error) {
			m, err := Build(context.Background(), o)
			if err != nil {
				return 0, err
			}
			return len(m.Workloads) * len(m.Configs), nil
		},
		"figures": func(o Options) (int, error) {
			sel := Selection{Figs: []string{"12a", "12b", "13", "14"}, Sens: true, OffChip: true, PIM: true, Ablations: true}
			sum, err := Render(context.Background(), io.Discard, sel, o)
			return sum.Cells, err
		},
	}
	for name, runPlan := range plans {
		t.Run(name, func(t *testing.T) {
			var live atomic.Int64 // tracers whose probe was not yet collected
			var done int
			observe := Observe{
				TraceDone: func(_ string, tr *trace.Tracer) error {
					done++
					// A tracer's tracks point back to it, and the finalizer
					// of an object in a cycle may never run: watch event
					// arguments only the tracer holds.
					probe := make([]trace.KV, 4)
					tr.Component("probe").At(0).Span("probe", 0, 0, probe...)
					live.Add(1)
					runtime.SetFinalizer(&probe[0], func(*trace.KV) { live.Add(-1) })
					return nil
				},
			}
			var maxLive int64
			events := 0
			total, err := runPlan(Options{
				Scale:   workloads.ScaleTest,
				Workers: workers,
				Observe: observe,
				Progress: func(ProgressEvent) {
					events++
					if maxLive > workers {
						return // already failed; don't wait again
					}
					n := live.Load()
					for deadline := time.Now().Add(time.Second); n > workers && time.Now().Before(deadline); n = live.Load() {
						runtime.GC()
						time.Sleep(time.Millisecond)
					}
					maxLive = max(maxLive, n)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if events != total || done != total {
				t.Fatalf("%d cells: %d progress events, %d tracers handed back", total, events, done)
			}
			if maxLive > workers {
				t.Errorf("%d tracers reachable at a progress event, want at most %d", maxLive, workers)
			}
		})
	}
}

// TestRenderFigureCellTimeoutDegrades hangs one Fig. 13 cell past the
// per-cell deadline: the figure still renders, the hung cell's entry reads
// n/a, and the Summary names the cell.
func TestRenderFigureCellTimeoutDegrades(t *testing.T) {
	var buf bytes.Buffer
	sum, err := Render(context.Background(), &buf, Selection{Figs: []string{"13"}}, Options{
		Scale:       workloads.ScaleTest,
		CellTimeout: 3 * time.Second,
		Hook: func(ctx context.Context, workload, config string) error {
			if workload == "bfs" && config == "Dist-DA-IO@2GHz" {
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Degraded) != 1 || !strings.HasPrefix(sum.Degraded[0], "fig13-") || !strings.Contains(sum.Degraded[0], "timeout") {
		t.Fatalf("degraded = %q, want the one hung fig13 cell", sum.Degraded)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "n/a") != strings.HasPrefix(line, "bfs ") {
			t.Errorf("only the bfs row may carry n/a: %q", line)
		}
	}
}

// TestBuildWarmDiskCacheCompilesNothing is the cache-effectiveness
// criterion: a second build over the same cache directory recompiles zero
// artifacts and renders identical tables.
func TestBuildWarmDiskCacheCompilesNothing(t *testing.T) {
	dir := t.TempDir()
	cold := artifact.New(artifact.Config{Dir: dir})
	ref, err := Build(context.Background(), Options{Scale: workloads.ScaleTest, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats().Compiles == 0 {
		t.Fatal("cold build compiled nothing")
	}
	warm := artifact.New(artifact.Config{Dir: dir})
	m, err := Build(context.Background(), Options{Scale: workloads.ScaleTest, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Compiles != 0 {
		t.Errorf("warm build compiled %d artifacts, want 0", st.Compiles)
	}
	if st.DiskHits == 0 {
		t.Error("warm build never hit the disk store")
	}
	if got, want := renderAll(m), renderAll(ref); got != want {
		t.Error("warm-cache run diverged from the cold run")
	}
}

// TestBuildStaleCheckpointRejected: a checkpoint written at another scale
// must fail loudly instead of resuming garbage.
func TestBuildStaleCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	if err := os.WriteFile(ckpt, []byte(`{"version":2,"scale":"bench","cells":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Build(context.Background(), Options{Scale: workloads.ScaleTest, Checkpoint: ckpt})
	if err == nil || !strings.Contains(err.Error(), "scale") {
		t.Errorf("mismatched-scale checkpoint: err = %v, want scale mismatch", err)
	}
	if err := os.WriteFile(ckpt, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Build(context.Background(), Options{Scale: workloads.ScaleTest, Checkpoint: ckpt})
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future-version checkpoint: err = %v, want version mismatch", err)
	}
}
