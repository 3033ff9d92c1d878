package sim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"distda/internal/backend"
	"distda/internal/compiler"
	"distda/internal/core"
	"distda/internal/ir"
	"distda/internal/profile"
	"distda/internal/trace"
	"distda/internal/workloads"
)

// reuseCell is one run of the machine-reuse tests.
type reuseCell struct {
	name     string
	k        *ir.Kernel
	params   map[string]float64
	data     map[string][]float64 // copied for every run
	cfg      Config
	compiled *compiler.Compiled
	observe  bool // attach a tracer and a profiler
	// cancelAfter, when positive, cancels the run that long after it
	// starts, wherever the run then is.
	cancelAfter time.Duration
}

// newReuseCell builds a run of w under cfg across threads software
// threads, compiled as RunThreads would compile it.
func newReuseCell(t *testing.T, w *workloads.Workload, cfg Config, threads int, observe bool) reuseCell {
	t.Helper()
	cfg.Threads = threads
	c := reuseCell{
		name: fmt.Sprintf("%s/%s/t%d/observe=%v", w.Name, cfg.Name, threads, observe),
		k:    ThreadKernel(w.Kernel, threads), params: w.Params, data: w.NewData(),
		cfg: cfg, observe: observe,
	}
	if cfg.HasAccel() {
		var err error
		if c.compiled, err = Compiled(c.k, cfg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	return c
}

// run runs c on r and returns its Result and everything the run shows:
// the Result's JSON or the error, and for an observed run the stats dump
// and the trace bytes.
func (c reuseCell) run(t *testing.T, r *Runner) (*Result, string) {
	t.Helper()
	cfg := c.cfg
	if c.observe {
		cfg.Trace, cfg.Profile = trace.New(), profile.New()
	}
	if c.cancelAfter > 0 {
		cancel := make(chan struct{})
		cfg.Cancel = cancel
		defer time.AfterFunc(c.cancelAfter, func() { close(cancel) }).Stop()
	}
	res, err := r.RunPrecompiled(c.k, c.params, copyData(c.data), cfg, c.compiled)
	var b strings.Builder
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
	} else {
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(js)
	}
	if c.observe {
		if err := cfg.Profile.WriteStats(&b); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Trace.WriteChromeJSON(&b); err != nil {
			t.Fatal(err)
		}
	}
	return res, b.String()
}

// earlyEndCells returns runs that end before their kernel does: canceled
// early and part-way through, out of engine budget mid-launch, failing
// validation, and failing to lay out their inputs.
func earlyEndCells(t *testing.T) []reuseCell {
	pr := workloads.Pagerank(workloads.ScaleTest)
	early := newReuseCell(t, pr, DistDAF(), 1, true)
	early.name, early.cancelAfter = "canceled-early", time.Nanosecond
	midway := newReuseCell(t, workloads.Cholesky(workloads.ScaleTest), DistDAIO(), 1, true)
	midway.name, midway.cancelAfter = "canceled-midway", time.Millisecond

	budget := newReuseCell(t, pr, DistDAIO(), 1, true)
	budget.cfg.MaxEngine, budget.name = 500, "engine-budget"

	// A region computing A-B attached to vecadd's loop: the offloaded
	// result diverges from the reference run.
	k, params, gen := vecAddKernel(512)
	sub := &ir.Kernel{Name: k.Name, Params: k.Params, Objects: k.Objects, Body: []ir.Stmt{
		ir.Loop("i", ir.C(0), ir.P("N"),
			ir.St("C", ir.V("i"), ir.SubE(ir.Ld("A", ir.V("i")), ir.Ld("B", ir.V("i"))))),
	}}
	cfg := DistDAF()
	good, err := Compiled(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Compiled(sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wrong := *good
	wrong.ByLoop = map[*ir.For]*core.Region{ir.Loops(k.Body)[0]: bad.ByLoop[ir.Loops(sub.Body)[0]]}
	invalid := reuseCell{name: "failed-validation", k: k, params: params, data: gen(), cfg: cfg, compiled: &wrong, observe: true}

	missing := newReuseCell(t, pr, MonoCA(), 1, true)
	missing.name = "missing-input"
	missing.data = copyData(missing.data)
	delete(missing.data, pr.Kernel.Objects[len(pr.Kernel.Objects)-1].Name)

	for _, c := range []reuseCell{budget, invalid, missing} {
		if _, out := c.run(t, new(Runner)); !strings.HasPrefix(out, "error: ") {
			t.Fatalf("%s: run did not fail: %.200s", c.name, out)
		}
	}
	return []reuseCell{early, midway, budget, invalid, missing}
}

// TestMachineResetMatchesFresh runs a cell A and then a cell B on one
// Runner: B's Result, stats dump and trace bytes must equal a run of B on
// a fresh machine, and A's Result must not change when B runs. A ranges
// over the ten named configurations, 1, 2 and 4 software threads, clock
// overrides, traced and profiled runs, runs that end early, and B itself.
func TestMachineResetMatchesFresh(t *testing.T) {
	ws := workloads.All(workloads.ScaleTest)
	bfsmt := workloads.BFSMT(workloads.ScaleTest)
	named := []Config{OoO(), MonoCA(), MonoDAIO(), MonoDAF(), DistDAIO(), DistDAF(),
		DistDAIOSW(), DistDAFA(), DistDAOffChip(), DistDAPIM()}
	var as []reuseCell
	for i, cfg := range named {
		as = append(as, newReuseCell(t, ws[i%len(ws)], cfg, 1, i%2 == 1))
	}
	for _, threads := range []int{1, 2, 4} {
		as = append(as, newReuseCell(t, bfsmt, DistDAF(), threads, threads == 2))
	}
	as = append(as,
		newReuseCell(t, ws[3], DistDAF().WithClock(1), 1, true),
		newReuseCell(t, ws[4], DistDAIO().WithClock(3), 1, false))
	as = append(as, earlyEndCells(t)...)

	bs := []reuseCell{
		newReuseCell(t, workloads.FDTD2D(workloads.ScaleTest), DistDAF(), 1, true),
		newReuseCell(t, bfsmt, MonoCA(), 2, true),
		// cholesky's host touches objects before offloading them, so a
		// coherence flush left marked done by an earlier run shows.
		newReuseCell(t, workloads.Cholesky(workloads.ScaleTest), DistDAIO(), 1, false),
		newReuseCell(t, workloads.NW(workloads.ScaleTest), OoO(), 1, true),
	}
	// B after itself: same kernel, object names and compiled definitions.
	as = append(as, bs...)
	fresh := make([]string, len(bs))
	for i, b := range bs {
		_, fresh[i] = b.run(t, new(Runner))
		if strings.HasPrefix(fresh[i], "error: ") {
			t.Fatalf("%s: %s", b.name, fresh[i])
		}
	}
	for _, a := range as {
		for i, b := range bs {
			var r Runner
			resA, _ := a.run(t, &r)
			var before []byte
			if resA != nil {
				before, _ = json.Marshal(resA)
			}
			if _, got := b.run(t, &r); got != fresh[i] {
				t.Errorf("%s after %s: diverges from a fresh machine\n got %.300s\nwant %.300s", b.name, a.name, got, fresh[i])
			}
			if resA != nil {
				if after, _ := json.Marshal(resA); string(after) != string(before) {
					t.Errorf("%s: Result changed when %s ran next on the same machine", a.name, b.name)
				}
			}
		}
	}
}

// TestRunnerDropsRun: once a run returns, the Runner's machine holds no
// reference to the run — its kernel, inputs, compiled definitions,
// tracer and profiler all become garbage while the machine lives on —
// and its pointer-keyed tables are empty.
func TestRunnerDropsRun(t *testing.T) {
	var r Runner
	var live atomic.Int64
	track := func(p any) {
		live.Add(1)
		runtime.SetFinalizer(p, func(any) { live.Add(-1) })
	}
	// pagerank's random accesses go through ports, fdtd-2d and cholesky
	// stream through fill and drain FSMs.
	for _, c := range []struct {
		w   func(workloads.Scale) *workloads.Workload
		cfg Config
	}{{workloads.Pagerank, DistDAF()}, {workloads.FDTD2D, MonoCA()}, {workloads.Cholesky, DistDAPIM()}} {
		cfg := c.cfg
		func() {
			w := c.w(workloads.ScaleTest)
			k := *w.Kernel
			compiled, err := Compiled(&k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			data := w.NewData()
			for _, v := range data {
				if len(v) >= 4 { // the finalizer of a tiny allocation may never run
					track(&v[0])
				}
			}
			track(&k)
			track(compiled)
			for _, reg := range compiled.Regions {
				for _, def := range reg.Accels {
					track(def)
				}
			}
			run := cfg
			run.Trace, run.Profile = trace.New(), profile.New()
			// A tracer's components point back to it, and the finalizer of
			// an object in a cycle may never run: track an event's
			// arguments, which only the tracer holds.
			probe := make([]trace.KV, 4)
			run.Trace.Component("probe").At(0).Span("probe", 0, 0, probe...)
			track(&probe[0])
			track(run.Profile)
			if _, err := r.RunPrecompiled(&k, w.Params, data, run, compiled); err != nil {
				t.Fatal(err)
			}
			for _, h := range run.Profile.Hists() {
				track(h)
			}
		}()
		if len(r.m.defs) != 0 || !reflect.DeepEqual(r.m.memo, backend.Memo{}) {
			t.Fatalf("%s: pointer-keyed tables survive the run: %d defs, memo %v", cfg.Name, len(r.m.defs), r.m.memo)
		}
		n := live.Load()
		for deadline := time.Now().Add(2 * time.Second); n > 0 && time.Now().Before(deadline); n = live.Load() {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if n > 0 {
			t.Fatalf("%s: %d of the run's objects still reachable from the machine", cfg.Name, n)
		}
	}
	runtime.KeepAlive(&r)
}
