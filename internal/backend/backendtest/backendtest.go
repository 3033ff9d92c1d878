// Package backendtest is a table-driven conformance suite every registered
// accelerator backend must pass: it drives a synthetic copy kernel through
// the decoupled request/response ports and checks the valid/ready handshake
// end to end — consume only on valid data, produce only into ready slots,
// back-pressure propagation, width limits, both orchestration modes, and
// the scalar register file. Each backend package runs it from its own test:
//
//	backendtest.Conformance(t, "iocore")
//	backendtest.Conformance(t, "cgra", backend.Opt("grid", "5x5"))
package backendtest

import (
	"testing"

	"distda/internal/accessunit"
	"distda/internal/backend"
	"distda/internal/core"
	"distda/internal/energy"
	"distda/internal/engine"
	"distda/internal/ir"
	"distda/internal/microcode"
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

// fixture is one engine wired to hand-fed request/response buffers.
type fixture struct {
	eng backend.Engine
	in  *accessunit.Buffer
	out *accessunit.InPort
	div int64
	now int64
}

func newFixture(t *testing.T, be backend.Backend, opts backend.Options,
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
	e, err := be.NewEngine(backend.LaunchSpec{
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

// Conformance runs the handshake suite against the named registered
// backend, passing opts to every engine construction (e.g. the cgra grid).
func Conformance(t *testing.T, name string, opts ...backend.Option) {
	be, ok := backend.Lookup(name)
	if !ok {
		t.Fatalf("backend %q not registered", name)
	}
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

	t.Run("rejects-excess-width", func(t *testing.T) {
		meter := energy.NewMeter(energy.Default32nm())
		inBuf, _ := accessunit.NewBuffer(16, meter)
		outBuf, _ := accessunit.NewBuffer(16, meter)
		_, err := be.NewEngine(backend.LaunchSpec{
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
		f := newFixture(t, be, o, n, n, 16, 16, 1)
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
		f := newFixture(t, be, o, n, n, 16, 16, 1)
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
		f := newFixture(t, be, o, n, n, 16, 2, 1)
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
		f := newFixture(t, be, o, -1, n, 16, 16, 1)
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
		f := newFixture(t, be, o, 1, 1, 4, 4, 1)
		f.eng.SetReg(7, 3.5)
		if got := f.eng.Reg(7); got != 3.5 {
			t.Fatalf("Reg(7) = %g after SetReg(7, 3.5)", got)
		}
	})

	// The engine scheduler trusts an engine's NextEvent claim until its
	// latch is woken, so an engine blocked on its ports must be woken by a
	// push into its request buffer and by a pop from its response buffer.
	t.Run("wakes-on-request-push", func(t *testing.T) { wakeRun(t, be, o, true) })
	t.Run("wakes-on-response-pop", func(t *testing.T) { wakeRun(t, be, o, false) })

	t.Run("max-width-accepted", func(t *testing.T) {
		const n = 6
		f := newFixture(t, be, o, n, n, 16, 16, caps.MaxPortWidth)
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
func wakeRun(t *testing.T, be backend.Backend, o backend.Options, slowFeed bool) {
	t.Helper()
	const n = 6
	run := func(mode engine.Mode) (int64, []float64) {
		outCap := 16
		if !slowFeed {
			outCap = 1
		}
		f := newFixture(t, be, o, n, n, 16, outCap, 1)
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
