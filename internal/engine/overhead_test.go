package engine

import (
	"testing"
	"time"

	"distda/internal/trace"
)

// runFastBaseline is a frozen copy of the wake-driven scheduler loop
// without its instrumentation — no Trace field reads, no hoisted traced or
// CollectFF branch. It is the differential baseline for the
// disabled-tracer overhead budget: the instrumented loop must stay within
// a few percent of this code and must return identical cycle counts.
func runFastBaseline(e *Engine, maxBaseCycles int64) (int64, error) {
	if e.running {
		panic("engine: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	e.prepare()
	start := e.now
	var idle int64
	window := int64(deadlockWindow) * e.maxDiv
	for {
		if e.live == 0 {
			return e.now - start, nil
		}
		if e.now-start >= maxBaseCycles {
			return e.now - start, errBudget(maxBaseCycles)
		}
		p := e.now % BaseGHz
		progress := e.step(p, true)
		if e.live == 0 {
			e.now++
			return e.now - start, nil
		}
		next, future := e.next(p, progress)
		if next == Never {
			return e.now - start, errDeadlock(e)
		}
		if progress || future {
			idle = 0
		} else {
			idle += next - e.now
			if idle > window {
				return e.now - start, errDeadlock(e)
			}
		}
		if lim := start + maxBaseCycles; next > lim {
			next = lim
		}
		e.now = next
	}
}

type budgetErr int64

func (b budgetErr) Error() string { return "engine: exceeded base-cycle budget" }

func errBudget(n int64) error { return budgetErr(n) }
func errDeadlock(e *Engine) error {
	return budgetErr(-1)
}

// TestTracedRunBitIdentical runs the same component population through the
// baseline loop, the instrumented loop with tracing disabled, and the
// instrumented loop with a live tracer, and requires identical elapsed
// cycles: tracing is observational only.
func TestTracedRunBitIdentical(t *testing.T) {
	builds := map[string]func(*Engine){"dense": buildDense, "sparse": buildSparse}
	for name, build := range builds {
		base := New()
		build(base)
		want, err := runFastBaseline(base, 1<<30)
		if err != nil {
			t.Fatalf("%s: baseline: %v", name, err)
		}

		plain := New()
		build(plain)
		got, err := plain.Run(1 << 30)
		if err != nil {
			t.Fatalf("%s: untraced: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: untraced Run = %d cycles, baseline = %d", name, got, want)
		}

		tr := trace.New()
		traced := New()
		traced.Trace = tr.Component("engine").At(0)
		build(traced)
		got, err = traced.Run(1 << 30)
		if err != nil {
			t.Fatalf("%s: traced: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: traced Run = %d cycles, baseline = %d", name, got, want)
		}
		if tr.Events() == 0 {
			t.Errorf("%s: traced run recorded no events", name)
		}
	}
}

// TestNaiveTracedBitIdentical is the same check for the reference
// scheduler.
func TestNaiveTracedBitIdentical(t *testing.T) {
	plain := New()
	plain.Mode = ModeNaive
	buildSparse(plain)
	want, err := plain.Run(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	traced := New()
	traced.Mode = ModeNaive
	traced.Trace = tr.Component("engine").At(0)
	buildSparse(traced)
	got, err := traced.Run(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("naive traced Run = %d cycles, untraced = %d", got, want)
	}
}

// timeRuns measures the wall time of reps back-to-back engine runs.
func timeRuns(reps int, build func(*Engine), run func(*Engine) (int64, error)) time.Duration {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		e := New()
		build(e)
		if _, err := run(e); err != nil {
			panic(err)
		}
	}
	return time.Since(t0)
}

// TestDisabledTracerOverhead asserts the instrumented scheduler with the
// zero-value (disabled) Trace stays within 2% of the frozen pre-tracing
// baseline loop on the dense benchmark population — the shape where
// scheduler overhead dominates and any per-cycle cost is maximally visible.
// Trials interleave the two loops and the comparison uses best-of-N, which
// discards scheduler noise; the test is skipped under -short and retried on
// marginal results before failing.
func TestDisabledTracerOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison; skipped under -short")
	}
	const (
		trials = 11
		reps   = 6
		budget = 1.02 // satellite acceptance: <= 2% overhead
	)
	current := func(e *Engine) (int64, error) { return e.Run(1 << 30) }
	baseline := func(e *Engine) (int64, error) { return runFastBaseline(e, 1<<30) }

	measure := func() (base, cur time.Duration) {
		base, cur = time.Duration(1<<62), time.Duration(1<<62)
		// Warm-up pass outside the measurement.
		timeRuns(1, buildDense, baseline)
		timeRuns(1, buildDense, current)
		for i := 0; i < trials; i++ {
			if d := timeRuns(reps, buildDense, baseline); d < base {
				base = d
			}
			if d := timeRuns(reps, buildDense, current); d < cur {
				cur = d
			}
		}
		return base, cur
	}

	var ratio float64
	for attempt := 0; attempt < 3; attempt++ {
		base, cur := measure()
		ratio = float64(cur) / float64(base)
		t.Logf("attempt %d: baseline %v, instrumented %v, ratio %.4f", attempt, base, cur, ratio)
		if ratio <= budget {
			return
		}
	}
	t.Errorf("disabled-tracer overhead %.2f%% exceeds 2%% budget", 100*(ratio-1))
}

// TestDisabledTracerAllocFree is the deterministic complement to
// TestDisabledTracerOverhead: with the zero-value (disabled) Trace and
// CollectFF off, a warm engine's Reset, Add and Run allocate nothing in
// steady state. The population mixes dense poll-only components with
// sparse Hinters, so the run also takes fast-forward jumps — the points
// where an enabled tracer builds its spans.
func TestDisabledTracerAllocFree(t *testing.T) {
	counters := make([]counter, 64)
	sleepers := make([]sleeper, 16)
	e := New()
	run := func() {
		e.Reset()
		for i := range counters {
			counters[i] = counter{n: 1 << 8}
			e.Add(&counters[i], benchGHz[i%len(benchGHz)])
		}
		for i := range sleepers {
			sleepers[i] = sleeper{items: 8, latency: 3000}
			e.Add(&sleepers[i], benchGHz[i%len(benchGHz)])
		}
		if _, err := e.Run(1 << 30); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("untraced Reset+Add+Run allocates %.1f times per run", n)
	}
}

// TestAdaptiveDenseOverhead asserts the default wake-driven scheduler
// stays within 5% of the naive reference loop on the dense poll-only
// population — the shape where a scheduler's own bookkeeping has nothing
// to skip and is pure overhead. Same methodology as
// TestDisabledTracerOverhead: interleaved trials, best-of-N, retry on
// marginal results, skipped under -short.
func TestAdaptiveDenseOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison; skipped under -short")
	}
	const (
		trials = 11
		reps   = 6
		budget = 1.05 // tentpole acceptance: DenseFast (adaptive) <= 1.05x DenseNaive
	)
	adaptive := func(e *Engine) (int64, error) { return e.Run(1 << 30) }
	naive := func(e *Engine) (int64, error) { e.Mode = ModeNaive; return e.Run(1 << 30) }

	measure := func() (base, cur time.Duration) {
		base, cur = time.Duration(1<<62), time.Duration(1<<62)
		timeRuns(1, buildDense, naive)
		timeRuns(1, buildDense, adaptive)
		for i := 0; i < trials; i++ {
			if d := timeRuns(reps, buildDense, naive); d < base {
				base = d
			}
			if d := timeRuns(reps, buildDense, adaptive); d < cur {
				cur = d
			}
		}
		return base, cur
	}

	var ratio float64
	for attempt := 0; attempt < 3; attempt++ {
		base, cur := measure()
		ratio = float64(cur) / float64(base)
		t.Logf("attempt %d: naive %v, adaptive %v, ratio %.4f", attempt, base, cur, ratio)
		if ratio <= budget {
			return
		}
	}
	t.Errorf("adaptive dense overhead %.2f%% exceeds 5%% budget vs naive", 100*(ratio-1))
}

// Benchmarks for manual comparison: the frozen baseline loop vs the
// instrumented loop with tracing disabled vs enabled.
func benchLoop(b *testing.B, build func(*Engine), run func(*Engine) (int64, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e := New()
		build(e)
		if _, err := run(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineLoopDenseBaseline(b *testing.B) {
	benchLoop(b, buildDense, func(e *Engine) (int64, error) { return runFastBaseline(e, 1<<30) })
}

func BenchmarkEngineLoopDenseTraced(b *testing.B) {
	tr := trace.New()
	benchLoop(b, func(e *Engine) {
		e.Trace = tr.Component("engine").At(0)
		buildDense(e)
	}, func(e *Engine) (int64, error) { return e.Run(1 << 30) })
}

func BenchmarkEngineLoopSparseBaseline(b *testing.B) {
	benchLoop(b, buildSparse, func(e *Engine) (int64, error) { return runFastBaseline(e, 1<<30) })
}

func BenchmarkEngineLoopSparseTraced(b *testing.B) {
	tr := trace.New()
	benchLoop(b, func(e *Engine) {
		e.Trace = tr.Component("engine").At(0)
		buildSparse(e)
	}, func(e *Engine) (int64, error) { return e.Run(1 << 30) })
}
