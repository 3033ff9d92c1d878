package sim

import (
	"math"
	"testing"

	"distda/internal/compiler"
	"distda/internal/ir"
)

// hostOnly runs a kernel on the pure host model and returns the machine.
func hostOnly(t *testing.T, k *ir.Kernel, params map[string]float64, data map[string][]float64) *machine {
	t.Helper()
	m := newMachine()
	if err := m.reset(OoO(), k, params, data); err != nil {
		t.Fatal(err)
	}
	prog, err := ir.NewProgram(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&host{m: m}).run(prog); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestHostDependentLoadsStallMore(t *testing.T) {
	const n = 4096
	// Streaming scan vs pointer chase over the same number of loads.
	stream := &ir.Kernel{
		Name:    "scan",
		Params:  []string{"N"},
		Objects: []ir.ObjDecl{{Name: "A", Len: n, ElemBytes: 8}, {Name: "S", Len: 1, ElemBytes: 8}},
		Body: []ir.Stmt{
			ir.Set("s", ir.C(0)),
			ir.Loop("i", ir.C(0), ir.P("N"), ir.Set("s", ir.AddE(ir.L("s"), ir.Ld("A", ir.V("i"))))),
			ir.St("S", ir.C(0), ir.L("s")),
		},
	}
	chase := &ir.Kernel{
		Name:    "chase",
		Params:  []string{"N"},
		Objects: []ir.ObjDecl{{Name: "A", Len: n, ElemBytes: 8}, {Name: "S", Len: 1, ElemBytes: 8}},
		Body: []ir.Stmt{
			ir.Set("p", ir.C(0)),
			ir.Loop("i", ir.C(0), ir.P("N"), ir.Set("p", ir.Ld("A", ir.L("p")))),
			ir.St("S", ir.C(0), ir.L("p")),
		},
	}
	mkData := func(perm bool) map[string][]float64 {
		a := make([]float64, n)
		for i := range a {
			if perm {
				a[i] = float64((i*2017 + 13) % n) // scattered chain
			} else {
				a[i] = 1
			}
		}
		return map[string][]float64{"A": a, "S": {0}}
	}
	ms := hostOnly(t, stream, map[string]float64{"N": n}, mkData(false))
	mc := hostOnly(t, chase, map[string]float64{"N": n}, mkData(true))
	// Same load count, but the chase's loop-carried chain stalls fully.
	if mc.memCycles < 3*ms.memCycles {
		t.Fatalf("chase stalls %0.f, stream stalls %0.f: dependence model too weak",
			mc.memCycles, ms.memCycles)
	}
}

func TestHostCountsInstructionClasses(t *testing.T) {
	k := &ir.Kernel{
		Name:    "ops",
		Objects: []ir.ObjDecl{{Name: "o", Len: 1, ElemBytes: 8}},
		Body:    []ir.Stmt{ir.St("o", ir.C(0), ir.MulE(ir.C(2), ir.SqrtE(ir.C(9))))},
	}
	m := hostOnly(t, k, nil, map[string][]float64{"o": {0}})
	// mul + sqrt + store.
	if m.hostInstr != 3 {
		t.Fatalf("hostInstr = %d, want 3", m.hostInstr)
	}
	if m.hostStores != 1 {
		t.Fatalf("stores = %d", m.hostStores)
	}
}

func TestJoinOnInflightWrites(t *testing.T) {
	// An offloaded loop writes B asynchronously (no scalar outs); a later
	// host read of B must join the offload (cycles include the engine
	// time); a host read of an untouched object must not.
	build := func(readObj string) (*ir.Kernel, map[string][]float64) {
		k := &ir.Kernel{
			Name:   "async",
			Params: []string{"N"},
			Objects: []ir.ObjDecl{
				{Name: "A", Len: 4096, ElemBytes: 8},
				{Name: "B", Len: 4096, ElemBytes: 8},
				{Name: "C", Len: 4096, ElemBytes: 8},
				{Name: "S", Len: 1, ElemBytes: 8},
			},
			Body: []ir.Stmt{
				ir.Loop("i", ir.C(0), ir.P("N"),
					ir.St("B", ir.V("i"), ir.MulE(ir.Ld("A", ir.V("i")), ir.C(2))),
				),
				ir.Set("x", ir.Ld(readObj, ir.C(0))),
				ir.Set("y", ir.AddE(ir.L("x"), ir.C(1))),
				ir.St("S", ir.C(0), ir.L("y")),
			},
		}
		data := map[string][]float64{
			"A": make([]float64, 4096), "B": make([]float64, 4096),
			"C": make([]float64, 4096), "S": {0},
		}
		return k, data
	}
	kJoin, dJoin := build("B")
	kFree, dFree := build("C")
	params := map[string]float64{"N": 4096}
	rJoin, err := Run(kJoin, params, dJoin, DistDAIO())
	if err != nil {
		t.Fatal(err)
	}
	rFree, err := Run(kFree, params, dFree, DistDAIO())
	if err != nil {
		t.Fatal(err)
	}
	if !rJoin.Validated || !rFree.Validated {
		t.Fatal("not validated")
	}
	// Both end-to-end times are bounded below by the accel timeline, so
	// they are close — but the joining variant must never be faster.
	if rJoin.Cycles < rFree.Cycles {
		t.Fatalf("join (%d) finished before free-running (%d)", rJoin.Cycles, rFree.Cycles)
	}
}

func TestAsyncLaunchOverlapsHostWork(t *testing.T) {
	// Offload (async) followed by substantial independent host compute:
	// total should be close to max(host, accel), not the sum.
	k := &ir.Kernel{
		Name:   "overlap",
		Params: []string{"N", "M"},
		Objects: []ir.ObjDecl{
			{Name: "A", Len: 8192, ElemBytes: 8},
			{Name: "B", Len: 8192, ElemBytes: 8},
			{Name: "H", Len: 8192, ElemBytes: 8},
		},
		Body: []ir.Stmt{
			ir.Loop("i", ir.C(0), ir.P("N"),
				ir.St("B", ir.V("i"), ir.AddE(ir.Ld("A", ir.V("i")), ir.C(1))),
			),
			// Host-side work on an unrelated object. A nested non-innermost
			// loop shape keeps it on the host.
			ir.Loop("h", ir.C(0), ir.P("M"),
				ir.Loop("g", ir.C(0), ir.C(4),
					ir.St("H", ir.ModE(ir.AddE(ir.V("h"), ir.V("g")), ir.C(8192)),
						ir.MulE(ir.V("h"), ir.C(3))),
				),
			),
		},
	}
	// The inner g-loop offloads too (it is innermost)... verify by running
	// with OoO-only host semantics instead: compare sequential sum bound.
	data := func() map[string][]float64 {
		return map[string][]float64{
			"A": make([]float64, 8192), "B": make([]float64, 8192), "H": make([]float64, 8192),
		}
	}
	params := map[string]float64{"N": 8192, "M": 2048}
	r, err := Run(k, params, data(), DistDAIO())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Validated {
		t.Fatal("not validated")
	}
}

func TestFlushChargedOncePerObject(t *testing.T) {
	// Two offloaded loops over the same objects: the coherence flush cost
	// is paid once per object per kernel (§IV-D), so launches stay cheap.
	k := &ir.Kernel{
		Name:   "twice",
		Params: []string{"N"},
		Objects: []ir.ObjDecl{
			{Name: "A", Len: 4096, ElemBytes: 8},
			{Name: "B", Len: 4096, ElemBytes: 8},
		},
		Body: []ir.Stmt{
			ir.Loop("i", ir.C(0), ir.P("N"),
				ir.St("B", ir.V("i"), ir.AddE(ir.Ld("A", ir.V("i")), ir.C(1)))),
			ir.Loop("j", ir.C(0), ir.P("N"),
				ir.St("B", ir.V("j"), ir.AddE(ir.Ld("A", ir.V("j")), ir.C(2)))),
		},
	}
	data := map[string][]float64{"A": make([]float64, 4096), "B": make([]float64, 4096)}
	r, err := Run(k, map[string]float64{"N": 4096}, data, DistDAIO())
	if err != nil {
		t.Fatal(err)
	}
	if r.Launches != 2 {
		t.Fatalf("launches = %d, want 2", r.Launches)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := &Result{Cycles: 100, HostInstr: 150, AccelOps: 50, MemOps: 60, EnergyPJ: 500, DataMovedBytes: 1000}
	if r.Instructions() != 200 || r.IPC() != 2 || r.MemOpRate() != 0.6 {
		t.Fatal("derived metrics")
	}
	base := &Result{Cycles: 200, EnergyPJ: 1500, DataMovedBytes: 2500}
	if r.SpeedupVs(base) != 2 || r.EnergyEfficiencyVs(base) != 3 || r.DataMovementReductionVs(base) != 2.5 {
		t.Fatal("ratios")
	}
	r2 := &Result{MMIOHost: 3, MemOps: 600}
	if pct := r2.InitOverheadPct(); pct != 0.5 {
		t.Fatalf("%%init = %g", pct)
	}
}

// hostStall runs k on the pure host model and returns its memory stall
// cycles.
func hostStall(t *testing.T, k *ir.Kernel, data map[string][]float64) float64 {
	t.Helper()
	return hostOnly(t, k, nil, data).memCycles
}

// chainKernel loads %p from A, then loads B[idx] (idx may read %p) either
// straight after or inside a one-iteration loop.
func chainKernel(idx ir.Expr, inLoop bool) *ir.Kernel {
	use := ir.Stmt(ir.Set("x", ir.Ld("B", idx)))
	if inLoop {
		use = ir.Loop("i", ir.C(0), ir.C(1), use)
	}
	return &ir.Kernel{
		Name:    "chain",
		Objects: []ir.ObjDecl{{Name: "A", Len: 1, ElemBytes: 8}, {Name: "B", Len: 1, ElemBytes: 8}},
		Body:    []ir.Stmt{ir.Set("p", ir.Ld("A", ir.C(0))), use},
	}
}

func chainData() map[string][]float64 {
	return map[string][]float64{"A": {0}, "B": {0}}
}

// TestHostCarriesLocalsFromBeforeALoop pins the taint promotion at an
// iteration start: %p, loaded before the loop, feeds B's index as a
// carried chain (the whole stall) from the loop's first iteration, where
// straight-line code stalls half of it (fresh) and a constant index a
// sixth (independent, MLP-overlapped).
func TestHostCarriesLocalsFromBeforeALoop(t *testing.T) {
	clean := hostStall(t, chainKernel(ir.C(0), false), chainData())
	fresh := hostStall(t, chainKernel(ir.L("p"), false), chainData())
	carried := hostStall(t, chainKernel(ir.L("p"), true), chainData())
	// B's stall s is the same miss in every run: the three differ only in
	// how much of it counts (s/6, s/2, s).
	if fresh <= clean {
		t.Fatalf("fresh dependence stalls %g, independent %g", fresh, clean)
	}
	if got := (carried - clean) / (fresh - clean); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("carried/fresh excess stall ratio %g, want 2.5 (s - s/6 over s/2 - s/6)", got)
	}
}

// TestHostSelTaint pins a Sel's taint: its chosen arm's plus its
// condition's, never the other arm's.
func TestHostSelTaint(t *testing.T) {
	p := ir.L("p") // fresh: loaded from A (it holds 0, so every index is 0)
	stall := func(idx ir.Expr) float64 { return hostStall(t, chainKernel(idx, false), chainData()) }
	clean, fresh := stall(ir.C(0)), stall(p)
	for _, c := range []struct {
		name string
		idx  ir.Expr
		want float64
	}{
		{"clean arm chosen over a fresh one", ir.SelE(ir.C(1), ir.C(0), p), clean},
		{"fresh arm chosen", ir.SelE(ir.C(0), ir.C(0), p), fresh},
		{"fresh condition, then arm chosen", ir.SelE(ir.EqE(p, ir.C(0)), ir.C(0), ir.C(0)), fresh},
		{"fresh condition, else arm chosen", ir.SelE(ir.NeE(p, ir.C(0)), ir.C(0), ir.C(0)), fresh},
	} {
		if got := stall(c.idx); got != c.want {
			t.Errorf("%s: stall %g, want %g (clean %g, fresh %g)", c.name, got, c.want, clean, fresh)
		}
	}
}

// TestLaunchExpressionLoadsAreHostLoads pins that the loads a launch's
// trip count and stream lengths make (here of the bound N[0]) run on the
// host: each is timed, counted as a host load, and evaluated once per
// launch-time expression.
func TestLaunchExpressionLoadsAreHostLoads(t *testing.T) {
	build := func(hi ir.Expr) *ir.Kernel {
		return &ir.Kernel{
			Name:   "bound",
			Params: []string{"M"},
			Objects: []ir.ObjDecl{
				{Name: "N", Len: 1, ElemBytes: 8},
				{Name: "A", Len: 256, ElemBytes: 8},
				{Name: "B", Len: 256, ElemBytes: 8},
			},
			Body: []ir.Stmt{ir.Loop("i", ir.C(0), hi, ir.St("B", ir.V("i"), ir.AddE(ir.Ld("A", ir.V("i")), ir.C(1))))},
		}
	}
	run := func(k *ir.Kernel) (*machine, *compiler.Compiled) {
		cfg := DistDAIO()
		compiled, err := Compiled(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		data := map[string][]float64{"N": {256}, "A": make([]float64, 256), "B": make([]float64, 256)}
		m := newMachine()
		res, err := m.run(k, map[string]float64{"M": 256}, data, cfg, compiled)
		if err != nil {
			t.Fatal(err)
		}
		if res.Launches != 1 || !res.Validated {
			t.Fatalf("%d launches, validated %v: want the loop offloaded once", res.Launches, res.Validated)
		}
		return m, compiled
	}
	mParam, _ := run(build(ir.P("M")))
	if mParam.hostLoads != 0 {
		t.Fatalf("parameter bound: %d host loads, want 0", mParam.hostLoads)
	}
	k := build(ir.Ld("N", ir.C(0)))
	m, compiled := run(k)
	exprs, _ := compiled.ByLoop[k.Body[0].(*ir.For)].LaunchExprs()
	want := int64(0)
	for _, e := range exprs {
		ir.WalkExpr(e, func(x ir.Expr) {
			if _, ok := x.(ir.Load); ok {
				want++
			}
		})
	}
	if want == 0 || m.hostLoads != want {
		t.Fatalf("loaded bound: %d host loads, want %d (one per load in the launch-time expressions)", m.hostLoads, want)
	}
	if m.memCycles <= mParam.memCycles {
		t.Fatalf("loaded bound stalls %g host cycles, parameter bound %g: the loads are not timed", m.memCycles, mParam.memCycles)
	}
}

// TestParallelLoopRunsEveryIteration chunks a parallel outer loop over the
// iterations it actually runs: ceil((hi-lo)/step), not the floor.
func TestParallelLoopRunsEveryIteration(t *testing.T) {
	for _, c := range []struct {
		hi, step float64
		threads  int
	}{{10, 3, 3}, {0.5, 1, 2}, {10, 1, 4}, {7, 2, 8}} {
		// The nested loop keeps the parallel loop outermost, so the
		// strip-miner leaves it alone.
		k := &ir.Kernel{
			Name:    "par",
			Objects: []ir.ObjDecl{{Name: "A", Len: 16, ElemBytes: 8}},
			Body: []ir.Stmt{&ir.For{IV: "i", Lo: ir.C(0), Hi: ir.C(c.hi), Step: ir.C(c.step), Parallel: true,
				Body: []ir.Stmt{ir.Loop("j", ir.C(0), ir.C(1), ir.St("A", ir.AddE(ir.V("i"), ir.V("j")), ir.C(1)))}}},
		}
		for _, cfg := range []Config{OoO(), DistDAIO()} {
			data := map[string][]float64{"A": make([]float64, 16)}
			res, err := RunThreads(k, nil, data, cfg, c.threads)
			if err != nil {
				t.Fatalf("0..%g step %g on %d threads, %s: %v", c.hi, c.step, c.threads, cfg.Name, err)
			}
			stored := 0
			for _, v := range data["A"] {
				stored += int(v)
			}
			if want := int(math.Ceil(c.hi / c.step)); stored != want || !res.Validated {
				t.Fatalf("0..%g step %g on %d threads, %s: %d of %d iterations stored", c.hi, c.step, c.threads, cfg.Name, stored, want)
			}
		}
	}
}
