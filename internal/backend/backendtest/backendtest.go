// Package backendtest is a table-driven conformance suite every
// accelerator backend must pass: it drives a synthetic copy kernel through
// the decoupled request/response ports and checks the valid/ready handshake
// end to end — consume only on valid data, produce only into ready slots,
// back-pressure propagation, width limits, both orchestration modes, and
// the scalar register file — on a fresh engine and again on one recycled
// through Engine.Reset. ResetMatchesNew checks the reset itself against
// the backend's NewEngine. Each backend package runs both from its own
// test:
//
//	backendtest.Conformance(t, iocore.Backend)
//	backendtest.Conformance(t, cgra.Backend, backend.Opt("grid", "5x5"))
//	backendtest.ResetMatchesNew(t, iocore.Backend)
package backendtest

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"distda/internal/accessunit"
	"distda/internal/backend"
	"distda/internal/core"
	"distda/internal/energy"
	"distda/internal/engine"
	"distda/internal/ir"
	"distda/internal/memfake"
	"distda/internal/microcode"
	"distda/internal/profile"
	"distda/internal/trace"
)

// copyDef builds the synthetic kernel: consume one element from access 0,
// produce it unchanged to access 1. whileInput selects end-of-stream
// orchestration watching the input.
func copyDef(n int64, whileInput bool) *core.AccelDef {
	cons := microcode.NewOp(microcode.Consume)
	cons.Dst, cons.Access = 1, 0
	prod := microcode.NewOp(microcode.Produce)
	prod.A, prod.Access = 1, 1
	trip := core.TripSpec{Kind: core.TripCounted, Count: ir.C(float64(n))}
	if whileInput {
		trip = core.TripSpec{Kind: core.TripWhileInput, InputAccess: 0}
	}
	return &core.AccelDef{
		ID: 0, Name: "copy",
		Accesses: []core.AccessDecl{
			{ID: 0, Kind: core.StreamIn, Obj: "in", ElemBytes: 8,
				Start: ir.C(0), Stride: ir.C(1), Length: ir.C(float64(n))},
			{ID: 1, Kind: core.StreamOut, Obj: "out", ElemBytes: 8,
				Start: ir.C(0), Stride: ir.C(1), Length: ir.C(float64(n))},
		},
		Program: microcode.Program{cons, prod},
		Trip:    trip,
	}
}

// mulDef is the definition a recycled engine ran before its Reset, unlike
// copyDef in every respect: three accesses, two inputs multiplied into
// one output, a random-access load that stalls, registers written that
// copyDef never touches, counted trips.
func mulDef(n int64) *core.AccelDef {
	a := microcode.NewOp(microcode.Consume)
	a.Dst, a.Access = 3, 0
	b := microcode.NewOp(microcode.Consume)
	b.Dst, b.Access = 4, 2
	mul := microcode.NewOp(microcode.ALU)
	mul.Dst, mul.A, mul.B, mul.Bin = 5, 3, 4, ir.Mul
	k := microcode.NewOp(microcode.MovI)
	k.Dst, k.Imm = 9, 11
	ld := microcode.NewOp(microcode.LoadObj)
	ld.Dst, ld.A, ld.Obj = 6, 3, "t"
	prod := microcode.NewOp(microcode.Produce)
	prod.A, prod.Access = 5, 1
	stream := func(id int, kind core.AccessKind, obj string) core.AccessDecl {
		return core.AccessDecl{ID: id, Kind: kind, Obj: obj, ElemBytes: 8,
			Start: ir.C(0), Stride: ir.C(1), Length: ir.C(float64(n))}
	}
	return &core.AccelDef{
		ID: 3, Name: "mul",
		Accesses: []core.AccessDecl{
			stream(0, core.StreamIn, "a"), stream(1, core.StreamOut, "c"), stream(2, core.StreamIn, "b"),
		},
		Program: microcode.Program{a, b, mul, k, ld, prod},
		Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.C(float64(n))},
	}
}

// engineMaker arms an engine of be for spec.
type engineMaker func(t *testing.T, be backend.Backend, spec backend.LaunchSpec) (backend.Engine, error)

// fresh builds the engine through the backend's NewEngine.
func fresh(t *testing.T, be backend.Backend, spec backend.LaunchSpec) (backend.Engine, error) {
	return be.NewEngine(spec)
}

// recycledAfter returns a maker of recycled engines whose earlier launch
// is cut off after cut edges; with release set, the engine is Released
// between the launches, as a simulator's engine pool is at the end of a
// run.
func recycledAfter(cut int, release bool) engineMaker {
	return func(t *testing.T, be backend.Backend, spec backend.LaunchSpec) (backend.Engine, error) {
		return recycled(t, be, spec, cut, release)
	}
}

// recycled runs an earlier launch (see launched), Releases the engine when
// release is set, and re-arms it for spec through Reset.
func recycled(t *testing.T, be backend.Backend, spec backend.LaunchSpec, cut int, release bool) (backend.Engine, error) {
	t.Helper()
	e := launched(t, be, spec.Opts, spec.Memo, cut, nil)
	if release {
		e.Release()
	}
	return e, e.Reset(spec)
}

// launched builds an engine for a launch of mulDef — at the widest port,
// another clock, with its own meter, latency histogram and tracer
// attached and a register set by cp_set_rf — and runs it for cut edges
// (400 run it to completion on every backend). track, when non-nil, is
// handed the launch's definition, histogram and an object only its
// tracer holds.
func launched(t *testing.T, be backend.Backend, opts backend.Options, memo *backend.Memo, cut int, track func(any)) backend.Engine {
	t.Helper()
	const n = 24
	meter := energy.NewMeter(energy.Default32nm())
	a, _ := accessunit.NewBuffer(8, meter)
	b, _ := accessunit.NewBuffer(8, meter)
	c, _ := accessunit.NewBuffer(4, meter)
	prof := profile.New()
	mem := memfake.New(8, map[string][]float64{"t": make([]float64, 64)})
	def, hist, tr := mulDef(n), prof.Hist("latency.test", "earlier launch"), trace.New()
	e, err := be.NewEngine(backend.LaunchSpec{
		Def: def, Trips: n,
		In:     []*accessunit.InPort{accessunit.NewInPort(a, 0), nil, accessunit.NewInPort(b, 0)},
		Out:    []*accessunit.OutPort{nil, {Buf: c}, nil},
		Random: accessunit.NewRandomPort(mem, &memfake.Fetch{Lat: 30}, 0, &accessunit.Stats{}, meter),
		GHz:    2, Width: be.Caps().MaxPortWidth, Meter: meter,
		LatHist: hist, Opts: opts, Memo: memo,
	})
	if err != nil {
		t.Fatalf("NewEngine for the earlier launch: %v", err)
	}
	e.AttachTrace(tr, 0)
	if track != nil {
		// A tracer's tracks point back to it, and the finalizer of an
		// object in a cycle may never run: hand over event arguments,
		// which only the tracer holds.
		probe := make([]trace.KV, 4)
		tr.Component("probe").At(0).Span("probe", 0, 0, probe...)
		track(def)
		track(hist)
		track(&probe[0])
	}
	e.SetReg(20, 5)
	cr := accessunit.NewInPort(c, 0)
	div := int64(engine.Div(2))
	pushed := 0
	for i := 0; i < cut; i++ {
		for pushed < n && a.CanPush() && b.CanPush() {
			a.Push(float64(pushed))
			b.Push(float64(pushed + 1))
			pushed++
		}
		if i%3 == 0 && c.CanPop(cr.Reader) {
			c.Pop(cr.Reader)
		}
		e.Step(int64(i) * div)
	}
	return e
}

// fixture is one engine wired to hand-fed request/response buffers.
type fixture struct {
	eng backend.Engine
	in  *accessunit.Buffer
	out *accessunit.InPort
	div int64
	now int64
}

func newFixture(t *testing.T, mk engineMaker, be backend.Backend, opts backend.Options,
	trips int64, n int64, inCap, outCap, width int) *fixture {
	t.Helper()
	meter := energy.NewMeter(energy.Default32nm())
	inBuf, err := accessunit.NewBuffer(inCap, meter)
	if err != nil {
		t.Fatalf("in buffer: %v", err)
	}
	outBuf, err := accessunit.NewBuffer(outCap, meter)
	if err != nil {
		t.Fatalf("out buffer: %v", err)
	}
	e, err := mk(t, be, backend.LaunchSpec{
		Def: copyDef(n, trips < 0), Trips: trips,
		In:  []*accessunit.InPort{accessunit.NewInPort(inBuf, 0), nil},
		Out: []*accessunit.OutPort{nil, {Buf: outBuf}},
		GHz: 1, Width: width, Meter: meter, Opts: opts,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return &fixture{eng: e, in: inBuf, out: accessunit.NewInPort(outBuf, 0),
		div: int64(engine.Div(1))}
}

// settle steps the engine for a generous fixed number of edges — enough for
// any conforming backend to drain whatever the ports allow.
func (f *fixture) settle() {
	for i := 0; i < 4096; i++ {
		f.eng.Step(f.now)
		f.now += f.div
	}
}

// drain pops every currently valid response element.
func (f *fixture) drain() []float64 {
	var got []float64
	for f.out.Buf.CanPop(f.out.Reader) {
		got = append(got, f.out.Buf.Pop(f.out.Reader))
	}
	return got
}

// push feeds request elements, failing the test on a full buffer.
func (f *fixture) push(t *testing.T, vals ...float64) {
	t.Helper()
	for _, v := range vals {
		if !f.in.CanPush() {
			t.Fatalf("push %g: request buffer unexpectedly full", v)
		}
		f.in.Push(v)
	}
}

func seq(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	return vals
}

func eq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Conformance runs the handshake suite against be, passing opts to every
// engine construction (e.g. the cgra grid).
func Conformance(t *testing.T, be backend.Backend, opts ...backend.Option) {
	o := backend.Options(opts)
	caps := be.Caps()
	if caps.MaxPortWidth < 1 {
		t.Fatalf("Caps().MaxPortWidth = %d, want >= 1", caps.MaxPortWidth)
	}
	if err := be.ValidateOptions(o); err != nil {
		t.Fatalf("ValidateOptions(%v): %v", o, err)
	}

	t.Run("rejects-unknown-option", func(t *testing.T) {
		bad := append(append(backend.Options{}, o...), backend.Opt("no-such-option", "1"))
		if err := be.ValidateOptions(bad); err == nil {
			t.Fatal("ValidateOptions accepted an unknown option")
		}
	})

	conformance(t, fresh, be, o)
	// The same cases on an engine that ran a launch of another definition
	// (cut off mid-run) and was re-armed through Reset.
	t.Run("recycled", func(t *testing.T) { conformance(t, recycledAfter(60, false), be, o) })
	t.Run("released", func(t *testing.T) { conformance(t, recycledAfter(60, true), be, o) })
}

// conformance runs the engine-level cases on engines mk arms.
func conformance(t *testing.T, mk engineMaker, be backend.Backend, o backend.Options) {
	caps := be.Caps()
	t.Run("rejects-excess-width", func(t *testing.T) {
		meter := energy.NewMeter(energy.Default32nm())
		inBuf, _ := accessunit.NewBuffer(16, meter)
		outBuf, _ := accessunit.NewBuffer(16, meter)
		_, err := mk(t, be, backend.LaunchSpec{
			Def: copyDef(4, false), Trips: 4,
			In:  []*accessunit.InPort{accessunit.NewInPort(inBuf, 0), nil},
			Out: []*accessunit.OutPort{nil, {Buf: outBuf}},
			GHz: 1, Width: caps.MaxPortWidth + 1, Meter: meter, Opts: o,
		})
		if err == nil {
			t.Fatalf("NewEngine accepted width %d > MaxPortWidth %d",
				caps.MaxPortWidth+1, caps.MaxPortWidth)
		}
	})

	t.Run("counted-completion", func(t *testing.T) {
		const n = 8
		f := newFixture(t, mk, be, o, n, n, 16, 16, 1)
		f.push(t, seq(n)...)
		f.settle()
		if !f.eng.Done() {
			t.Fatal("engine not done after consuming all counted trips")
		}
		if !f.out.Buf.Closed() {
			t.Fatal("response buffer not closed at completion")
		}
		if got := f.drain(); !eq(got, seq(n)) {
			t.Fatalf("responses = %v, want %v", got, seq(n))
		}
		if ops := f.eng.Ops(); ops <= 0 {
			t.Fatalf("Ops() = %d after a completed run, want > 0", ops)
		}
	})

	t.Run("partial-fill-valid-ready", func(t *testing.T) {
		const n = 8
		f := newFixture(t, mk, be, o, n, n, 16, 16, 1)
		f.push(t, seq(3)...)
		f.settle()
		if f.eng.Done() {
			t.Fatal("engine done with only 3 of 8 requests delivered")
		}
		if got := f.drain(); !eq(got, seq(3)) {
			t.Fatalf("responses after partial fill = %v, want %v", got, seq(3))
		}
		f.push(t, 4, 5, 6, 7, 8)
		f.settle()
		if !f.eng.Done() {
			t.Fatal("engine not done after the remaining requests arrived")
		}
		if got := f.drain(); !eq(got, []float64{4, 5, 6, 7, 8}) {
			t.Fatalf("late responses = %v, want [4 5 6 7 8]", got)
		}
	})

	t.Run("backpressure", func(t *testing.T) {
		const n = 12
		// A 2-slot response buffer: the engine must stall on a full buffer
		// (ready deasserted) and resume as the consumer pops.
		f := newFixture(t, mk, be, o, n, n, 16, 2, 1)
		f.push(t, seq(n)...)
		f.settle()
		if f.eng.Done() {
			t.Fatal("engine done despite a blocked 2-slot response buffer")
		}
		var got []float64
		for i := 0; i < n; i++ {
			got = append(got, f.drain()...)
			f.settle()
			if len(got) == n {
				break
			}
		}
		got = append(got, f.drain()...)
		if !eq(got, seq(n)) {
			t.Fatalf("responses under backpressure = %v, want %v", got, seq(n))
		}
		if !f.eng.Done() {
			t.Fatal("engine not done after the consumer drained everything")
		}
	})

	t.Run("while-input", func(t *testing.T) {
		const n = 5
		f := newFixture(t, mk, be, o, -1, n, 16, 16, 1)
		f.push(t, seq(n)...)
		f.settle()
		if f.eng.Done() {
			t.Fatal("while-input engine finished before end-of-stream")
		}
		f.in.Close()
		f.settle()
		if !f.eng.Done() {
			t.Fatal("while-input engine not done after the input closed")
		}
		if got := f.drain(); !eq(got, seq(n)) {
			t.Fatalf("responses = %v, want %v", got, seq(n))
		}
	})

	t.Run("regfile", func(t *testing.T) {
		f := newFixture(t, mk, be, o, 1, 1, 4, 4, 1)
		f.eng.SetReg(7, 3.5)
		if got := f.eng.Reg(7); got != 3.5 {
			t.Fatalf("Reg(7) = %g after SetReg(7, 3.5)", got)
		}
	})

	// The engine scheduler trusts an engine's NextEvent claim until its
	// latch is woken, so an engine blocked on its ports must be woken by a
	// push into its request buffer and by a pop from its response buffer.
	t.Run("wakes-on-request-push", func(t *testing.T) { wakeRun(t, mk, be, o, true) })
	t.Run("wakes-on-response-pop", func(t *testing.T) { wakeRun(t, mk, be, o, false) })

	t.Run("max-width-accepted", func(t *testing.T) {
		const n = 6
		f := newFixture(t, mk, be, o, n, n, 16, 16, caps.MaxPortWidth)
		f.push(t, seq(n)...)
		f.settle()
		if !f.eng.Done() {
			t.Fatal("engine at MaxPortWidth did not complete")
		}
		if got := f.drain(); !eq(got, seq(n)) {
			t.Fatalf("responses = %v, want %v", got, seq(n))
		}
	})
}

// pacer is a poll-only peer that acts once every period clock edges until
// act reports it is done. Waiting counts as progress, like any timer.
type pacer struct {
	period, edges int
	act           func() bool
	done          bool
}

func (p *pacer) Step(int64) bool {
	p.edges++
	if p.edges%p.period == 0 {
		p.done = p.act()
	}
	return true
}

func (p *pacer) Done() bool { return p.done }

// wakeRun drives the copy kernel under the engine scheduler with a pacer
// that either feeds requests (slowFeed) or drains responses one element
// at a time, so the engine blocks on an empty request or a full response
// buffer between elements and only that port's traffic can wake it. The
// run must finish with the same responses and cycle count as under the
// naive loop, which steps the engine on every edge.
func wakeRun(t *testing.T, mk engineMaker, be backend.Backend, o backend.Options, slowFeed bool) {
	t.Helper()
	const n = 6
	run := func(mode engine.Mode) (int64, []float64) {
		outCap := 16
		if !slowFeed {
			outCap = 1
		}
		f := newFixture(t, mk, be, o, n, n, 16, outCap, 1)
		if !slowFeed {
			f.push(t, seq(n)...)
		}
		var got []float64
		fed := 0
		peer := &pacer{period: 40, act: func() bool {
			if slowFeed {
				fed++
				f.push(t, float64(fed))
				return fed == n
			}
			got = append(got, f.drain()...)
			return f.out.Buf.Drained(f.out.Reader)
		}}
		e := engine.New()
		e.Mode = mode
		e.Add(f.eng, 1)
		e.Add(peer, 1)
		elapsed, err := e.Run(1 << 20)
		if err != nil {
			t.Fatalf("%s scheduler: %v", mode, err)
		}
		return elapsed, append(got, f.drain()...)
	}
	wantCycles, want := run(engine.ModeNaive)
	if !eq(want, seq(n)) {
		t.Fatalf("naive responses = %v, want %v", want, seq(n))
	}
	gotCycles, got := run(engine.ModeAdaptive)
	if gotCycles != wantCycles || !eq(got, want) {
		t.Fatalf("default scheduler: %d cycles, responses %v; naive: %d cycles, %v",
			gotCycles, got, wantCycles, want)
	}
}

// ResetMatchesNew checks be's Engine.Reset against its NewEngine. An
// engine that ran a launch of another definition (mulDef), cut off after
// 0, 7 or 40 edges or run to completion, is Reset for a copy kernel; a
// fresh engine is built for the same kernel on ports of its own.
// Right after arming, the two must agree on every exported field (so a
// Reset engine no longer feeds the earlier launch's tracer or histogram).
// Driven through the same script, they must then agree edge for edge on progress
// and NextEvent claims, and at the end on responses, closed outputs,
// registers, Ops, exported counters, energy and AddProfile output.
func ResetMatchesNew(t *testing.T, be backend.Backend, opts ...backend.Option) {
	o := backend.Options(opts)
	for _, cut := range []int{0, 7, 40, 400} {
		for _, release := range []bool{false, true} {
			for _, whileInput := range []bool{false, true} {
				for _, outCap := range []int{1, 16} {
					t.Run(fmt.Sprintf("cut%d/release=%v/while-input=%v/out%d", cut, release, whileInput, outCap), func(t *testing.T) {
						var memo backend.Memo
						want := resetObs(t, fresh, be, o, &memo, whileInput, outCap)
						got := resetObs(t, recycledAfter(cut, release), be, o, &memo, whileInput, outCap)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("recycled engine diverges from a fresh one:\n got %+v\nwant %+v", got, want)
						}
					})
				}
			}
		}
	}
	// A released engine holds nothing of its launch: the definition,
	// histogram and tracer become garbage while the engine lives on.
	t.Run("release-drops-launch", func(t *testing.T) {
		var live atomic.Int64
		e := launched(t, be, o, nil, 40, func(p any) {
			live.Add(1)
			runtime.SetFinalizer(p, func(any) { live.Add(-1) })
		})
		e.Release()
		n := live.Load()
		for deadline := time.Now().Add(2 * time.Second); n > 0 && time.Now().Before(deadline); n = live.Load() {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if n > 0 {
			t.Fatalf("%d of the launch's objects still reachable from the released engine", n)
		}
		runtime.KeepAlive(e)
	})
	// Both arms on one spec: every exported field (counters, width, trace
	// scope, histogram) must match right after arming.
	t.Run("exported-fields", func(t *testing.T) {
		meter := energy.NewMeter(energy.Default32nm())
		inBuf, _ := accessunit.NewBuffer(16, meter)
		outBuf, _ := accessunit.NewBuffer(16, meter)
		spec := backend.LaunchSpec{
			Def: copyDef(8, false), Trips: 8,
			In:  []*accessunit.InPort{accessunit.NewInPort(inBuf, 0), nil},
			Out: []*accessunit.OutPort{nil, {Buf: outBuf}},
			GHz: 1, Width: 1, Meter: meter, Opts: o,
			LatHist: profile.New().Hist("latency.test", "this launch"),
		}
		want, err := be.NewEngine(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := recycled(t, be, spec, 40, false)
		if err != nil {
			t.Fatal(err)
		}
		if w, g := exported(want, false), exported(got, false); !reflect.DeepEqual(g, w) {
			t.Fatalf("exported fields after Reset %+v, fresh %+v", g, w)
		}
	})
}

// resetObs arms an engine through mk for a copy kernel and drives it: a
// producer that, from the fifth edge on, pushes 12 requests as space
// allows (then closes the input under while-input orchestration) and a
// consumer that pops a response every third edge. It returns everything
// observable about the run.
func resetObs(t *testing.T, mk engineMaker, be backend.Backend, o backend.Options, memo *backend.Memo, whileInput bool, outCap int) []any {
	t.Helper()
	const n = 12
	meter := energy.NewMeter(energy.Default32nm())
	prof := profile.New()
	inBuf, _ := accessunit.NewBuffer(4, meter)
	outBuf, _ := accessunit.NewBuffer(outCap, meter)
	trips := int64(n)
	if whileInput {
		trips = -1
	}
	e, err := mk(t, be, backend.LaunchSpec{
		Def: copyDef(n, whileInput), Trips: trips,
		In:  []*accessunit.InPort{accessunit.NewInPort(inBuf, 0), nil},
		Out: []*accessunit.OutPort{nil, {Buf: outBuf}},
		GHz: 1, Width: 1, Meter: meter, Opts: o,
		LatHist: prof.Hist("latency.test", "this launch"), Memo: memo,
	})
	if err != nil {
		t.Fatalf("arming the engine: %v", err)
	}
	tr := trace.New()
	e.AttachTrace(tr, 0)
	out := accessunit.NewInPort(outBuf, 0)
	var steps []int64
	var got []float64
	pushed := 0
	div := int64(engine.Div(1))
	for i := 0; i < 300 && !e.Done(); i++ {
		now := int64(i) * div
		for i >= 4 && pushed < n && inBuf.CanPush() {
			pushed++
			inBuf.Push(float64(pushed))
		}
		if pushed == n && whileInput && !inBuf.Closed() {
			inBuf.Close()
		}
		if i%3 == 0 && outBuf.CanPop(out.Reader) {
			got = append(got, outBuf.Pop(out.Reader))
		}
		p := int64(0)
		if e.Step(now) {
			p = 1
		}
		steps = append(steps, p, e.NextEvent(now))
	}
	for outBuf.CanPop(out.Reader) {
		got = append(got, outBuf.Pop(out.Reader))
	}
	var regs [microcode.NumRegs]float64
	for r := range regs {
		regs[r] = e.Reg(r)
	}
	r := prof.Region("k", "r")
	r.AddLaunch(0, 0, 1, 0)
	e.AddProfile(prof, r)
	var stats, folded bytes.Buffer
	if err := prof.WriteStats(&stats); err != nil {
		t.Fatal(err)
	}
	if err := prof.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	return []any{steps, got, e.Done(), outBuf.Closed(), regs, e.Ops(), exported(e, true),
		meter.TotalPJ(), tr.Events(), stats.String(), folded.String()}
}

// exported returns the values of e's exported struct fields by name,
// those of an embedded struct (the sequencer an engine shares) included;
// countersOnly keeps the integer ones, which two engines armed on
// different ports can share.
func exported(e backend.Engine, countersOnly bool) map[string]any {
	v := reflect.ValueOf(e)
	for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		v = v.Elem()
	}
	m := map[string]any{}
	exportedFields(v, countersOnly, m)
	return m
}

func exportedFields(v reflect.Value, countersOnly bool, m map[string]any) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
		case reflect.Struct:
			if f.Anonymous {
				exportedFields(v.Field(i), countersOnly, m)
				continue
			}
			fallthrough
		default:
			if countersOnly {
				continue
			}
		}
		m[f.Name] = v.Field(i).Interface()
	}
}
