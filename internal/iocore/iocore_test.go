package iocore

import (
	"strings"
	"testing"

	"distda/internal/accessunit"
	"distda/internal/backend"
	"distda/internal/backend/backendtest"
	"distda/internal/core"
	"distda/internal/energy"
	"distda/internal/engine"
	"distda/internal/ir"
	"distda/internal/memfake"
	"distda/internal/microcode"
	"distda/internal/noc"
)

func op(c microcode.Code) microcode.Op { return microcode.NewOp(c) }

// doubler wires StreamIn(A) -> core(x2) -> StreamOut(B).
func doubler(t *testing.T, n int) (*engine.Engine, *Core, *memfake.Mem) {
	t.Helper()
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i + 1)
	}
	mem := memfake.New(8, map[string][]float64{"A": a, "B": make([]float64, n)})
	fetch := &memfake.Fetch{Lat: 10}
	stats := &accessunit.Stats{}
	meter := energy.NewMeter(energy.Default32nm())

	bufIn, _ := accessunit.NewBuffer(16, meter)
	inPort := accessunit.NewInPort(bufIn, 0)
	fsmIn, err := accessunit.NewStreamIn(bufIn, mem, fetch, 0, "A", 0, 1, int64(n), stats, meter)
	if err != nil {
		t.Fatal(err)
	}
	bufOut, _ := accessunit.NewBuffer(16, meter)
	fsmOut, err := accessunit.NewStreamOut(bufOut, mem, fetch, 0, "B", 0, 1, stats, meter)
	if err != nil {
		t.Fatal(err)
	}

	cons := op(microcode.Consume)
	cons.Dst, cons.Access = 1, 0
	mul := op(microcode.ALUI)
	mul.Dst, mul.A, mul.Bin, mul.Imm = 2, 1, ir.Mul, 2
	prod := op(microcode.Produce)
	prod.A, prod.Access = 2, 1

	def := &core.AccelDef{
		ID: 0, Name: "doubler", Objects: []string{"A", "B"},
		Accesses: []core.AccessDecl{
			{ID: 0, Kind: core.StreamIn, Obj: "A", ElemBytes: 8, Start: ir.C(0), Stride: ir.C(1), Length: ir.C(float64(n))},
			{ID: 1, Kind: core.StreamOut, Obj: "B", ElemBytes: 8, Start: ir.C(0), Stride: ir.C(1), Length: ir.C(float64(n))},
		},
		Program: microcode.Program{cons, mul, prod},
		Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.C(float64(n))},
	}
	c, err := newCore(def, int64(n),
		[]*accessunit.InPort{inPort},
		[]*accessunit.OutPort{nil, {Buf: bufOut}},
		accessunit.NewRandomPort(mem, fetch, 0, stats, meter),
		energy.NewMeter(energy.Default32nm()), 1) // the core's energy alone
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	eng.Add(fsmIn, 2)
	eng.Add(c, 2)
	eng.Add(fsmOut, 2)
	return eng, c, mem
}

func TestCoreStreamDoubler(t *testing.T) {
	const n = 32
	eng, c, mem := doubler(t, n)
	if _, err := eng.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := mem.Objs["B"][i]; got != float64(2*(i+1)) {
			t.Fatalf("B[%d] = %g, want %g", i, got, float64(2*(i+1)))
		}
	}
	if c.Iters != n || c.Ops() != 3*n {
		t.Fatalf("iters=%d ops=%d", c.Iters, c.Ops())
	}
	if !c.Done() {
		t.Fatal("core not done")
	}
}

func TestTwoCorePipelineOverLink(t *testing.T) {
	const n = 24
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
	}
	mem := memfake.New(8, map[string][]float64{"A": a, "B": make([]float64, n)})
	fetch := &memfake.Fetch{Lat: 6}
	stats := &accessunit.Stats{}
	meter := energy.NewMeter(energy.Default32nm())

	bufA, _ := accessunit.NewBuffer(8, meter)
	inA := accessunit.NewInPort(bufA, 0)
	fsmA, _ := accessunit.NewStreamIn(bufA, mem, fetch, 0, "A", 0, 1, n, stats, meter)

	// Producer-side channel buffer (proxy) and consumer-side buffer, Fig. 4.
	chSrc, _ := accessunit.NewBuffer(8, meter)
	chDst, _ := accessunit.NewBuffer(8, meter)
	chIn := accessunit.NewInPort(chDst, 0)

	bufB, _ := accessunit.NewBuffer(8, meter)
	fsmB, _ := accessunit.NewStreamOut(bufB, mem, fetch, 0, "B", 0, 1, stats, meter)

	// Core 0: v+1 -> channel.
	c0ops := microcode.Program{}
	o := op(microcode.Consume)
	o.Dst, o.Access = 1, 0
	c0ops = append(c0ops, o)
	o = op(microcode.ALUI)
	o.Dst, o.A, o.Bin, o.Imm = 2, 1, ir.Add, 1
	c0ops = append(c0ops, o)
	o = op(microcode.Produce)
	o.A, o.Access = 2, 1
	c0ops = append(c0ops, o)

	// Core 1: v*3 -> B.
	c1ops := microcode.Program{}
	o = op(microcode.Consume)
	o.Dst, o.Access = 1, 0
	c1ops = append(c1ops, o)
	o = op(microcode.ALUI)
	o.Dst, o.A, o.Bin, o.Imm = 2, 1, ir.Mul, 3
	c1ops = append(c1ops, o)
	o = op(microcode.Produce)
	o.A, o.Access = 2, 1
	c1ops = append(c1ops, o)

	def0 := &core.AccelDef{
		ID: 0, Accesses: []core.AccessDecl{
			{ID: 0, Kind: core.StreamIn, Obj: "A", ElemBytes: 8, Start: ir.C(0), Stride: ir.C(1), Length: ir.C(n)},
			{ID: 1, Kind: core.ChanOut, ElemBytes: 8, Peer: core.PeerRef{Accel: 1, Access: 0}},
		},
		Program: c0ops, Trip: core.TripSpec{Kind: core.TripCounted, Count: ir.C(n)},
	}
	def1 := &core.AccelDef{
		ID: 1, Accesses: []core.AccessDecl{
			{ID: 0, Kind: core.ChanIn, ElemBytes: 8, Peer: core.PeerRef{Accel: 0, Access: 1}},
			{ID: 1, Kind: core.StreamOut, Obj: "B", ElemBytes: 8, Start: ir.C(0), Stride: ir.C(1), Length: ir.C(n)},
		},
		Program: c1ops, Trip: core.TripSpec{Kind: core.TripWhileInput, InputAccess: 0},
	}
	rp := accessunit.NewRandomPort(mem, fetch, 0, stats, meter)
	core0, err := newCore(def0, n, []*accessunit.InPort{inA},
		[]*accessunit.OutPort{nil, {Buf: chSrc}}, rp, meter, 1)
	if err != nil {
		t.Fatal(err)
	}
	core1, err := newCore(def1, -1, []*accessunit.InPort{chIn},
		[]*accessunit.OutPort{nil, {Buf: bufB}}, rp, meter, 1)
	if err != nil {
		t.Fatal(err)
	}
	linkTx, linkRx := accessunit.NewLocalLink(chSrc, chDst, noc.New(noc.DefaultConfig(), meter), 0, 1, 8, stats)

	eng := engine.New()
	eng.Add(fsmA, 2)
	eng.Add(core0, 2)
	eng.Add(linkTx, 2)
	eng.Add(linkRx, 2)
	eng.Add(core1, 2)
	eng.Add(fsmB, 2)
	if _, err := eng.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := float64((i + 1) * 3)
		if got := mem.Objs["B"][i]; got != want {
			t.Fatalf("B[%d] = %g, want %g", i, got, want)
		}
	}
	if stats.AABytes != 8*n {
		t.Fatalf("AABytes = %d, want %d", stats.AABytes, 8*n)
	}
}

func TestCoreReductionReadBack(t *testing.T) {
	// Sum A into r2 across iterations, read back with Reg (cp_load_rf).
	const n = 16
	a := make([]float64, n)
	var want float64
	for i := range a {
		a[i] = float64(i * i)
		want += a[i]
	}
	mem := memfake.New(8, map[string][]float64{"A": a})
	fetch := &memfake.Fetch{Lat: 4}
	stats := &accessunit.Stats{}
	buf, _ := accessunit.NewBuffer(8, nil)
	in := accessunit.NewInPort(buf, 0)
	fsm, _ := accessunit.NewStreamIn(buf, mem, fetch, 0, "A", 0, 1, n, stats, nil)

	cons := op(microcode.Consume)
	cons.Dst, cons.Access = 1, 0
	add := op(microcode.ALU)
	add.Dst, add.A, add.B, add.Bin = 2, 2, 1, ir.Add

	def := &core.AccelDef{
		ID: 0, Accesses: []core.AccessDecl{
			{ID: 0, Kind: core.StreamIn, Obj: "A", ElemBytes: 8, Start: ir.C(0), Stride: ir.C(1), Length: ir.C(n)},
		},
		Program: microcode.Program{cons, add},
		Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.C(n)},
	}
	c, err := newCore(def, n, []*accessunit.InPort{in}, nil,
		accessunit.NewRandomPort(mem, fetch, 0, stats, nil), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.SetReg(2, 0) // cp_set_rf accumulator init
	eng := engine.New()
	eng.Add(fsm, 2)
	eng.Add(c, 2)
	if _, err := eng.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if got := c.Reg(2); got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestCorePredicatedRandomStore(t *testing.T) {
	// For each consumed v: if v > 10, out[iter] = v (predicated store).
	vals := []float64{5, 20, 7, 30}
	mem := memfake.New(8, map[string][]float64{"V": vals, "O": make([]float64, 4)})
	fetch := &memfake.Fetch{Lat: 3}
	stats := &accessunit.Stats{}
	buf, _ := accessunit.NewBuffer(8, nil)
	in := accessunit.NewInPort(buf, 0)
	fsm, _ := accessunit.NewStreamIn(buf, mem, fetch, 0, "V", 0, 1, 4, stats, nil)

	cons := op(microcode.Consume)
	cons.Dst, cons.Access = 1, 0
	cmp := op(microcode.ALUI)
	cmp.Dst, cmp.A, cmp.Bin, cmp.Imm = 2, 1, ir.Gt, 10
	it := op(microcode.Iter)
	it.Dst = 3
	st := op(microcode.StoreObj)
	st.A, st.B, st.Obj, st.Pred = 3, 1, "O", 2

	def := &core.AccelDef{
		ID: 0, Accesses: []core.AccessDecl{
			{ID: 0, Kind: core.StreamIn, Obj: "V", ElemBytes: 8, Start: ir.C(0), Stride: ir.C(1), Length: ir.C(4)},
		},
		Program: microcode.Program{cons, cmp, it, st},
		Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.C(4)},
	}
	c, err := newCore(def, 4, []*accessunit.InPort{in}, nil,
		accessunit.NewRandomPort(mem, fetch, 0, stats, nil), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	eng.Add(fsm, 2)
	eng.Add(c, 2)
	if _, err := eng.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 20, 0, 30}
	for i, w := range want {
		if mem.Objs["O"][i] != w {
			t.Fatalf("O = %v, want %v", mem.Objs["O"], want)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	// A core consuming from a buffer nobody fills.
	buf, _ := accessunit.NewBuffer(4, nil)
	in := accessunit.NewInPort(buf, 0)
	cons := op(microcode.Consume)
	cons.Dst, cons.Access = 1, 0
	def := &core.AccelDef{
		ID: 0, Accesses: []core.AccessDecl{
			{ID: 0, Kind: core.ChanIn, ElemBytes: 8},
		},
		Program: microcode.Program{cons},
		Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.C(4)},
	}
	c, err := newCore(def, 4, []*accessunit.InPort{in}, nil, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	eng.Add(c, 2)
	_, err = eng.Run(1 << 16)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock, got %v", err)
	}
}

func TestResetRejectsBadInputs(t *testing.T) {
	def := &core.AccelDef{
		ID:      0,
		Program: microcode.Program{},
		Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.C(1)},
	}
	if _, err := newCore(def, 1, nil, nil, nil, nil, 1); err == nil {
		t.Fatal("empty program accepted")
	}
	def.Program = microcode.Program{op(microcode.Nop)}
	if _, err := newCore(def, 1, nil, nil, nil, nil, MaxWidth+1); err == nil {
		t.Fatalf("width %d accepted", MaxWidth+1)
	}
}

func TestAccelEnergyMetered(t *testing.T) {
	const n = 8
	eng, c, _ := doubler(t, n)
	if _, err := eng.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	// Every retired op costs the in-order front end plus its class: per
	// iteration an integer consume, a complex mul and an integer produce,
	// charged in retirement order.
	tab := energy.Default32nm()
	want := 0.0
	for i := 0; i < n; i++ {
		want += tab.IOInstrPJ + tab.IntOpPJ
		want += tab.IOInstrPJ + tab.ComplexOpPJ
		want += tab.IOInstrPJ + tab.IntOpPJ
	}
	if got := c.meter.Get(energy.CatAccel); got != want {
		t.Fatalf("accelerator energy = %g pJ, want %g", got, want)
	}
}

// newCore arms a core for def through Reset, as the simulator does, at
// 2 GHz and the given issue width.
func newCore(def *core.AccelDef, trips int64, in []*accessunit.InPort, out []*accessunit.OutPort,
	random *accessunit.RandomPort, meter *energy.Meter, width int) (*Core, error) {
	c := new(Core)
	return c, c.Reset(backend.LaunchSpec{Def: def, Trips: trips, In: in, Out: out,
		Random: random, GHz: 2, Width: width, Meter: meter})
}

func TestConformance(t *testing.T) { backendtest.Conformance(t, Backend) }

func TestResetMatchesNew(t *testing.T) { backendtest.ResetMatchesNew(t, Backend) }
