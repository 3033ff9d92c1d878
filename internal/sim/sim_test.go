package sim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"distda/internal/ir"
)

func vecAddKernel(n int) (*ir.Kernel, map[string]float64, func() map[string][]float64) {
	k := &ir.Kernel{
		Name:   "vecadd",
		Params: []string{"N"},
		Objects: []ir.ObjDecl{
			{Name: "A", Len: n, ElemBytes: 8},
			{Name: "B", Len: n, ElemBytes: 8},
			{Name: "C", Len: n, ElemBytes: 8},
		},
		Body: []ir.Stmt{
			ir.Loop("i", ir.C(0), ir.P("N"),
				ir.St("C", ir.V("i"), ir.AddE(ir.Ld("A", ir.V("i")), ir.Ld("B", ir.V("i")))),
			),
		},
	}
	gen := func() map[string][]float64 {
		rng := rand.New(rand.NewSource(5))
		a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = float64(rng.Intn(1000))
			b[i] = float64(rng.Intn(1000))
		}
		return map[string][]float64{"A": a, "B": b, "C": c}
	}
	return k, map[string]float64{"N": float64(n)}, gen
}

// stencil2d: row-wise 3-point average over a matrix (nested loops).
func stencilKernel(rows, cols int) (*ir.Kernel, map[string]float64, func() map[string][]float64) {
	n := rows * cols
	k := &ir.Kernel{
		Name:   "stencil",
		Params: []string{"R", "W"},
		Objects: []ir.ObjDecl{
			{Name: "A", Len: n, ElemBytes: 8},
			{Name: "B", Len: n, ElemBytes: 8},
		},
		Body: []ir.Stmt{
			ir.Loop("i", ir.C(0), ir.P("R"),
				ir.Loop("j", ir.C(1), ir.SubE(ir.P("W"), ir.C(1)),
					ir.St("B", ir.Idx2(ir.V("i"), ir.P("W"), ir.V("j")),
						ir.DivE(
							ir.AddE(ir.Ld("A", ir.SubE(ir.Idx2(ir.V("i"), ir.P("W"), ir.V("j")), ir.C(1))),
								ir.AddE(ir.Ld("A", ir.Idx2(ir.V("i"), ir.P("W"), ir.V("j"))),
									ir.Ld("A", ir.AddE(ir.Idx2(ir.V("i"), ir.P("W"), ir.V("j")), ir.C(1))))),
							ir.C(3))),
				),
			),
		},
	}
	gen := func() map[string][]float64 {
		rng := rand.New(rand.NewSource(7))
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(100))
		}
		return map[string][]float64{"A": a, "B": b}
	}
	return k, map[string]float64{"R": float64(rows), "W": float64(cols)}, gen
}

// gather: C[i] = V[IDX[i]] — indirect loads.
func gatherKernel(n int) (*ir.Kernel, map[string]float64, func() map[string][]float64) {
	k := &ir.Kernel{
		Name:   "gather",
		Params: []string{"N"},
		Objects: []ir.ObjDecl{
			{Name: "IDX", Len: n, ElemBytes: 8},
			{Name: "V", Len: n, ElemBytes: 8},
			{Name: "C", Len: n, ElemBytes: 8},
		},
		Body: []ir.Stmt{
			ir.Loop("i", ir.C(0), ir.P("N"),
				ir.St("C", ir.V("i"), ir.Ld("V", ir.Ld("IDX", ir.V("i")))),
			),
		},
	}
	gen := func() map[string][]float64 {
		rng := rand.New(rand.NewSource(11))
		idx, v, c := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			idx[i] = float64(rng.Intn(n))
			v[i] = float64(rng.Intn(5000))
		}
		return map[string][]float64{"IDX": idx, "V": v, "C": c}
	}
	return k, map[string]float64{"N": float64(n)}, gen
}

// reduction with final scalar store after the loop.
func reduceKernel(n int) (*ir.Kernel, map[string]float64, func() map[string][]float64) {
	k := &ir.Kernel{
		Name:    "reduce",
		Params:  []string{"N"},
		Objects: []ir.ObjDecl{{Name: "A", Len: n, ElemBytes: 8}, {Name: "S", Len: 1, ElemBytes: 8}},
		Body: []ir.Stmt{
			ir.Set("sum", ir.C(0)),
			ir.Loop("i", ir.C(0), ir.P("N"),
				ir.Set("sum", ir.AddE(ir.L("sum"), ir.Ld("A", ir.V("i")))),
			),
			ir.St("S", ir.C(0), ir.L("sum")),
		},
	}
	gen := func() map[string][]float64 {
		rng := rand.New(rand.NewSource(13))
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(50))
		}
		return map[string][]float64{"A": a, "S": {0}}
	}
	return k, map[string]float64{"N": float64(n)}, gen
}

func allConfigs() []Config { return AllPaperConfigs() }

func TestRunValidatesAcrossConfigs(t *testing.T) {
	type mk func() (*ir.Kernel, map[string]float64, func() map[string][]float64)
	kernels := []mk{
		func() (*ir.Kernel, map[string]float64, func() map[string][]float64) { return vecAddKernel(2048) },
		func() (*ir.Kernel, map[string]float64, func() map[string][]float64) { return stencilKernel(16, 64) },
		func() (*ir.Kernel, map[string]float64, func() map[string][]float64) { return gatherKernel(1024) },
		func() (*ir.Kernel, map[string]float64, func() map[string][]float64) { return reduceKernel(2048) },
	}
	for _, make := range kernels {
		k, params, gen := make()
		for _, cfg := range allConfigs() {
			res, err := Run(k, params, gen(), cfg)
			if err != nil {
				t.Fatalf("%s on %s: %v", k.Name, cfg.Name, err)
			}
			if !res.Validated {
				t.Fatalf("%s on %s: not validated", k.Name, cfg.Name)
			}
			if res.Cycles <= 0 || res.EnergyPJ <= 0 {
				t.Fatalf("%s on %s: degenerate result %+v", k.Name, cfg.Name, res)
			}
		}
	}
}

// TestCompareDataNonFinite: validation matches a NaN or ±Inf only against
// an equal value (NaN against NaN), and keeps the relative tolerance for
// finite values.
func TestCompareDataNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		got, want float64
		match     bool
	}{
		{1, 1, true},
		{1 + 1e-12, 1, true},
		{1.001, 1, false},
		{nan, nan, true},
		{inf, inf, true},
		{-inf, -inf, true},
		{nan, 1, false},
		{1, nan, false},
		{inf, 1, false},
		{1, inf, false},
		{-inf, 1, false},
		{inf, -inf, false},
		{nan, inf, false},
		{inf, nan, false},
	}
	for _, tc := range cases {
		err := compareData(map[string][]float64{"o": {0, tc.got}}, map[string][]float64{"o": {0, tc.want}})
		if (err == nil) != tc.match {
			t.Errorf("got %g, want %g: match=%v, error %v", tc.got, tc.want, tc.match, err)
		}
	}
}

func TestAccelConfigsUseAccelerators(t *testing.T) {
	k, params, gen := vecAddKernel(2048)
	for _, cfg := range allConfigs()[1:] { // skip OoO
		res, err := Run(k, params, gen(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if res.AccelOps == 0 {
			t.Fatalf("%s: no accelerator ops", cfg.Name)
		}
		if res.Launches == 0 {
			t.Fatalf("%s: no launches", cfg.Name)
		}
		if res.DABytes == 0 {
			t.Fatalf("%s: no accel-cache traffic", cfg.Name)
		}
	}
}

func TestOoOHasNoAccelActivity(t *testing.T) {
	k, params, gen := vecAddKernel(1024)
	res, err := Run(k, params, gen(), OoO())
	if err != nil {
		t.Fatal(err)
	}
	if res.AccelOps != 0 || res.Launches != 0 || res.DABytes != 0 {
		t.Fatalf("OoO has accel activity: %+v", res)
	}
	if res.HostInstr == 0 || res.CacheL1 == 0 {
		t.Fatal("OoO executed nothing")
	}
}

func TestStreamingEnergyOrdering(t *testing.T) {
	// The headline claim, directionally: near-data configs beat the OoO
	// baseline on energy for a streaming kernel.
	k, params, gen := vecAddKernel(8192)
	base, err := Run(k, params, gen(), OoO())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{DistDAIO(), DistDAF()} {
		res, err := Run(k, params, gen(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		eff := res.EnergyEfficiencyVs(base)
		if eff <= 1 {
			t.Fatalf("%s energy efficiency vs OoO = %.2f, want > 1", cfg.Name, eff)
		}
	}
}

func TestDistReducesCacheAccessesVsOoO(t *testing.T) {
	k, params, gen := vecAddKernel(8192)
	base, _ := Run(k, params, gen(), OoO())
	dist, err := Run(k, params, gen(), DistDAF())
	if err != nil {
		t.Fatal(err)
	}
	baseTotal := base.CacheL1 + base.CacheL2 + base.CacheL3
	distTotal := dist.CacheL1 + dist.CacheL2 + dist.CacheL3
	if distTotal >= baseTotal {
		t.Fatalf("cache accesses: dist %d !< OoO %d", distTotal, baseTotal)
	}
}

func TestMonoCAVsDistTraffic(t *testing.T) {
	// Dist-DA should move fewer bytes than Mono-CA's centralized accesses.
	k, params, gen := stencilKernel(64, 2048)
	mono, err := Run(k, params, gen(), MonoCA())
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Run(k, params, gen(), DistDAF())
	if err != nil {
		t.Fatal(err)
	}
	if dist.DataMovedBytes >= mono.DataMovedBytes {
		t.Fatalf("data moved: dist %d !< mono-CA %d", dist.DataMovedBytes, mono.DataMovedBytes)
	}
}

func TestMMIOOverheadSmall(t *testing.T) {
	k, params, gen := vecAddKernel(8192)
	res, err := Run(k, params, gen(), DistDAIO())
	if err != nil {
		t.Fatal(err)
	}
	if res.MMIOHost == 0 {
		t.Fatal("no MMIO recorded")
	}
	if pct := res.InitOverheadPct(); pct > 5 {
		t.Fatalf("%%init = %.2f, want small", pct)
	}
}

func TestClockingSpeedup(t *testing.T) {
	k, params, gen := stencilKernel(16, 128)
	r1, err := Run(k, params, gen(), DistDAIO().WithClock(1))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(k, params, gen(), DistDAIO().WithClock(3))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cycles > r1.Cycles {
		t.Fatalf("3 GHz slower than 1 GHz: %d vs %d", r3.Cycles, r1.Cycles)
	}
}

func TestRunThreadsParallelLoop(t *testing.T) {
	const n = 64 * 32
	k := &ir.Kernel{
		Name:   "parvec",
		Params: []string{"R", "W"},
		Objects: []ir.ObjDecl{
			{Name: "A", Len: n, ElemBytes: 8},
			{Name: "B", Len: n, ElemBytes: 8},
		},
		Body: []ir.Stmt{
			ir.ParLoop("i", ir.C(0), ir.P("R"),
				ir.Loop("j", ir.C(0), ir.P("W"),
					ir.St("B", ir.Idx2(ir.V("i"), ir.P("W"), ir.V("j")),
						ir.MulE(ir.Ld("A", ir.Idx2(ir.V("i"), ir.P("W"), ir.V("j"))), ir.C(3))),
				),
			),
		},
	}
	params := map[string]float64{"R": 64, "W": 32}
	gen := func() map[string][]float64 {
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = float64(i % 97)
		}
		return map[string][]float64{"A": a, "B": b}
	}
	cfg := DistDAIO()
	r1, err := RunThreads(k, params, gen(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunThreads(k, params, gen(), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Validated {
		t.Fatal("threaded run not validated")
	}
	if r4.Cycles >= r1.Cycles {
		t.Fatalf("4 threads not faster: %d vs %d", r4.Cycles, r1.Cycles)
	}
}

// TestRunRetainsNoKernel: a validated run must not pin its kernel (nor the
// bytecode compiled from it) beyond the call. Servers build a fresh kernel
// per job, so anything keyed by kernel pointer would grow without bound.
func TestRunRetainsNoKernel(t *testing.T) {
	collected := make(chan struct{})
	func() {
		k, params, gen := vecAddKernel(64)
		runtime.SetFinalizer(k, func(*ir.Kernel) { close(collected) })
		cfg := DistDAIO()
		if !cfg.ValidateEvery {
			t.Fatal("test needs a validated run")
		}
		if _, err := Run(k, params, gen(), cfg); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("kernel still reachable after sim.Run returned")
}
