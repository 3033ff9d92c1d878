package cgra

import (
	"testing"

	"distda/internal/accessunit"
	"distda/internal/core"
	"distda/internal/energy"
	"distda/internal/engine"
	"distda/internal/ir"
	"distda/internal/memfake"
	"distda/internal/microcode"
)

func op(c microcode.Code) microcode.Op { return microcode.NewOp(c) }

func TestMapResourceMII(t *testing.T) {
	// 9 independent complex ops on a grid with 4 complex PEs:
	// II = ceil(9/4) = 3.
	var prog microcode.Program
	for i := 0; i < 9; i++ {
		o := op(microcode.ALUI)
		o.Dst, o.A, o.Bin, o.Imm = i+1, 0, ir.Mul, 2
		prog = append(prog, o)
	}
	m, err := Map(prog, Grid5x5())
	if err != nil {
		t.Fatal(err)
	}
	if m.II != 3 {
		t.Fatalf("II = %d, want 3", m.II)
	}
	if m.Depth != 1 {
		t.Fatalf("Depth = %d, want 1 (independent ops)", m.Depth)
	}
	// A serial chain of 9 multiplies is a recurrence-free chain when the
	// final register is not fed back: depth 9, II still 3.
	var chain microcode.Program
	for i := 0; i < 9; i++ {
		o := op(microcode.ALUI)
		o.Dst, o.A, o.Bin, o.Imm = i+2, i+1, ir.Mul, 2
		chain = append(chain, o)
	}
	mc, err := Map(chain, Grid5x5())
	if err != nil {
		t.Fatal(err)
	}
	if mc.Depth != 9 || mc.II != 3 {
		t.Fatalf("chain II/Depth = %d/%d, want 3/9", mc.II, mc.Depth)
	}
}

func TestMapIndependentOpsDepthOne(t *testing.T) {
	var prog microcode.Program
	for i := 0; i < 5; i++ {
		o := op(microcode.MovI)
		o.Dst, o.Imm = i+1, float64(i)
		prog = append(prog, o)
	}
	m, err := Map(prog, Grid5x5())
	if err != nil {
		t.Fatal(err)
	}
	if m.II != 1 || m.Depth != 1 {
		t.Fatalf("II/Depth = %d/%d, want 1/1", m.II, m.Depth)
	}
}

func TestMapRecurrenceMII(t *testing.T) {
	// r2 = ((r2+1)*2): a 2-op loop-carried chain: recMII = 2.
	add := op(microcode.ALUI)
	add.Dst, add.A, add.Bin, add.Imm = 3, 2, ir.Add, 1
	mul := op(microcode.ALUI)
	mul.Dst, mul.A, mul.Bin, mul.Imm = 2, 3, ir.Mul, 2
	m, err := Map(microcode.Program{add, mul}, Grid5x5())
	if err != nil {
		t.Fatal(err)
	}
	if m.II != 2 {
		t.Fatalf("II = %d, want 2 (recurrence)", m.II)
	}
}

func TestMapRejectsPredicatedConsume(t *testing.T) {
	o := op(microcode.Consume)
	o.Dst, o.Access, o.Pred = 1, 0, 2
	if _, err := Map(microcode.Program{o}, Grid5x5()); err == nil {
		t.Fatal("predicated consume accepted")
	}
}

func TestMapRejectsEmptyOrBadGrid(t *testing.T) {
	if _, err := Map(microcode.Program{}, Grid5x5()); err == nil {
		t.Fatal("empty program accepted")
	}
	o := op(microcode.Nop)
	if _, err := Map(microcode.Program{o}, GridConfig{Name: "bad"}); err == nil {
		t.Fatal("zero-resource grid accepted")
	}
}

func TestGrid8x8LowersII(t *testing.T) {
	var prog microcode.Program
	for i := 0; i < 24; i++ {
		o := op(microcode.ALUI)
		o.Dst, o.A, o.Bin, o.Imm = i%4+1, i%4+1, ir.Add, 1
		prog = append(prog, o)
	}
	m5, _ := Map(prog, Grid5x5())
	m8, _ := Map(prog, Grid8x8())
	if m8.II > m5.II {
		t.Fatalf("8x8 II %d > 5x5 II %d", m8.II, m5.II)
	}
}

// fabricDoubler mirrors the iocore doubler but on the fabric.
func fabricDoubler(t *testing.T, n int) (*engine.Engine, *Fabric, *memfake.Mem) {
	t.Helper()
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i + 1)
	}
	mem := memfake.New(8, map[string][]float64{"A": a, "B": make([]float64, n)})
	fetch := &memfake.Fetch{Lat: 8}
	stats := &accessunit.Stats{}
	meter := energy.NewMeter(energy.Default32nm())

	bufIn, _ := accessunit.NewBuffer(16, meter)
	inPort := accessunit.NewInPort(bufIn, 0)
	fsmIn, _ := accessunit.NewStreamIn(bufIn, mem, fetch, 0, "A", 0, 1, int64(n), stats, meter)
	bufOut, _ := accessunit.NewBuffer(16, meter)
	fsmOut, _ := accessunit.NewStreamOut(bufOut, mem, fetch, 0, "B", 0, 1, stats, meter)

	cons := op(microcode.Consume)
	cons.Dst, cons.Access = 1, 0
	mul := op(microcode.ALUI)
	mul.Dst, mul.A, mul.Bin, mul.Imm = 2, 1, ir.Mul, 2
	prod := op(microcode.Produce)
	prod.A, prod.Access = 2, 1

	def := &core.AccelDef{
		ID: 0, Name: "fdoubler",
		Accesses: []core.AccessDecl{
			{ID: 0, Kind: core.StreamIn, Obj: "A", ElemBytes: 8, Start: ir.C(0), Stride: ir.C(1), Length: ir.C(float64(n))},
			{ID: 1, Kind: core.StreamOut, Obj: "B", ElemBytes: 8, Start: ir.C(0), Stride: ir.C(1), Length: ir.C(float64(n))},
		},
		Program: microcode.Program{cons, mul, prod},
		Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.C(float64(n))},
	}
	f, err := planFabric(def, Grid5x5(), int64(n),
		[]*accessunit.InPort{inPort, nil},
		[]*accessunit.OutPort{nil, {Buf: bufOut}},
		accessunit.NewRandomPort(mem, fetch, 0, stats, meter),
		int64(engine.Div(1)), meter)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	eng.Add(fsmIn, 2)
	eng.Add(f, 1) // fabric at 1 GHz
	eng.Add(fsmOut, 2)
	return eng, f, mem
}

func TestFabricStreamDoubler(t *testing.T) {
	const n = 32
	eng, f, mem := fabricDoubler(t, n)
	if _, err := eng.Run(1 << 21); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := mem.Objs["B"][i]; got != float64(2*(i+1)) {
			t.Fatalf("B[%d] = %g", i, got)
		}
	}
	if f.Iters != n {
		t.Fatalf("iters = %d", f.Iters)
	}
	if f.Mapping().II != 1 {
		t.Fatalf("II = %d, want 1", f.Mapping().II)
	}
}

func TestFabricReduction(t *testing.T) {
	const n = 16
	a := make([]float64, n)
	var want float64
	for i := range a {
		a[i] = float64(i + 1)
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
		ID: 0,
		Accesses: []core.AccessDecl{
			{ID: 0, Kind: core.StreamIn, Obj: "A", ElemBytes: 8, Start: ir.C(0), Stride: ir.C(1), Length: ir.C(n)},
		},
		Program: microcode.Program{cons, add},
		Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.C(n)},
	}
	f, err := planFabric(def, Grid5x5(), n,
		[]*accessunit.InPort{in}, nil,
		accessunit.NewRandomPort(mem, fetch, 0, stats, nil),
		int64(engine.Div(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	f.SetReg(2, 0)
	eng := engine.New()
	eng.Add(fsm, 2)
	eng.Add(f, 1)
	if _, err := eng.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if got := f.Reg(2); got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestFabricWhileInputTerminates(t *testing.T) {
	// Producer closes after 5 elements; fabric consumes until drained.
	src, _ := accessunit.NewBuffer(8, nil)
	in := accessunit.NewInPort(src, 0)
	for i := 0; i < 5; i++ {
		src.Push(float64(i))
	}
	src.Close()
	cons := op(microcode.Consume)
	cons.Dst, cons.Access = 1, 0
	add := op(microcode.ALU)
	add.Dst, add.A, add.B, add.Bin = 2, 2, 1, ir.Add
	def := &core.AccelDef{
		ID: 0,
		Accesses: []core.AccessDecl{
			{ID: 0, Kind: core.ChanIn, ElemBytes: 8},
		},
		Program: microcode.Program{cons, add},
		Trip:    core.TripSpec{Kind: core.TripWhileInput, InputAccess: 0},
	}
	f, err := planFabric(def, Grid5x5(), -1, []*accessunit.InPort{in}, nil, nil,
		int64(engine.Div(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	eng.Add(f, 1)
	if _, err := eng.Run(1 << 16); err != nil {
		t.Fatal(err)
	}
	if got := f.Reg(2); got != 10 {
		t.Fatalf("sum = %g, want 10", got)
	}
	if f.Iters != 5 {
		t.Fatalf("iters = %d", f.Iters)
	}
}

func TestFabricUnwiredConsumeRejected(t *testing.T) {
	cons := op(microcode.Consume)
	cons.Dst, cons.Access = 1, 0
	def := &core.AccelDef{
		ID:       0,
		Accesses: []core.AccessDecl{{ID: 0, Kind: core.ChanIn, ElemBytes: 8}},
		Program:  microcode.Program{cons},
		Trip:     core.TripSpec{Kind: core.TripCounted, Count: ir.C(1)},
	}
	if _, err := planFabric(def, Grid5x5(), 1, nil, nil, nil, 6, nil); err == nil {
		t.Fatal("unwired consume accepted")
	}
}

// TestFabricSteadyStateAllocFree: once the pipeline has filled, Step and
// startIteration reuse each flight's storage and allocate nothing.
func TestFabricSteadyStateAllocFree(t *testing.T) {
	in, _ := accessunit.NewBuffer(16, nil)
	out, _ := accessunit.NewBuffer(16, nil)
	inPort := accessunit.NewInPort(in, 0)
	outRd := out.AttachReader(0)
	cons := op(microcode.Consume)
	cons.Dst, cons.Access = 1, 0
	mul := op(microcode.ALUI)
	mul.Dst, mul.A, mul.Bin, mul.Imm = 2, 1, ir.Mul, 2
	prod := op(microcode.Produce)
	prod.A, prod.Access = 2, 1
	def := &core.AccelDef{
		ID: 0,
		Accesses: []core.AccessDecl{
			{ID: 0, Kind: core.ChanIn, ElemBytes: 8},
			{ID: 1, Kind: core.ChanOut, ElemBytes: 8},
		},
		Program: microcode.Program{cons, mul, prod},
		Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.C(1 << 20)},
	}
	div := int64(engine.Div(1))
	f, err := planFabric(def, Grid5x5(), 1<<20, []*accessunit.InPort{inPort, nil},
		[]*accessunit.OutPort{nil, {Buf: out}}, nil, div, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	edge := func() {
		for in.CanPush() {
			in.Push(1)
		}
		f.Step(now)
		for out.CanPop(outRd) {
			out.Pop(outRd)
		}
		now += div
	}
	for i := 0; i < 64; i++ {
		edge()
	}
	if f.Iters == 0 {
		t.Fatal("fabric never initiated")
	}
	if n := testing.AllocsPerRun(1000, edge); n != 0 {
		t.Fatalf("Fabric.Step allocates %.2f times per edge", n)
	}
}

// planFabric maps def onto g and builds its fabric (NewPlan + NewFabric).
func planFabric(def *core.AccelDef, g GridConfig, trips int64, in []*accessunit.InPort, out []*accessunit.OutPort,
	rp *accessunit.RandomPort, div int64, meter *energy.Meter) (*Fabric, error) {
	p, err := NewPlan(def, g)
	if err != nil {
		return nil, err
	}
	return NewFabric(p, trips, in, out, rp, div, meter)
}

func TestFabricPipelinesFasterThanSerial(t *testing.T) {
	// With II=1 and depth>1, n iterations should take ~n+depth fabric
	// cycles, far less than n*depth.
	const n = 64
	eng, f, _ := fabricDoubler(t, n)
	cycles, err := eng.Run(1 << 21)
	if err != nil {
		t.Fatal(err)
	}
	fabricCycles := cycles / int64(engine.Div(1))
	serial := int64(n * f.Mapping().Depth * 3)
	if fabricCycles >= serial {
		t.Fatalf("no pipelining: %d fabric cycles vs serial bound %d", fabricCycles, serial)
	}
}
