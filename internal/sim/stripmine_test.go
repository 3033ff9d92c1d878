package sim

import (
	"testing"

	"distda/internal/ir"
)

func TestStripMineParallelInnermost(t *testing.T) {
	body := []ir.Stmt{
		ir.Loop("d", ir.C(0), ir.P("D"),
			ir.ParLoop("e", ir.C(0), ir.P("M"),
				ir.St("B", ir.V("e"), ir.Ld("A", ir.V("e"))),
			),
		),
	}
	k := &ir.Kernel{
		Name:   "sm",
		Params: []string{"D", "M"},
		Objects: []ir.ObjDecl{
			{Name: "A", Len: 100, ElemBytes: 8},
			{Name: "B", Len: 100, ElemBytes: 8},
		},
		Body: body,
	}
	out := stripMineParallelInnermost(k, 4)
	if out == k {
		t.Fatal("kernel not rewritten")
	}
	if err := ir.Validate(out); err != nil {
		t.Fatalf("rewritten kernel invalid: %v", err)
	}
	loops := ir.Loops(out.Body)
	// d, __t, e — three loops now; __t is parallel, e no longer is.
	if len(loops) != 3 {
		t.Fatalf("loops = %d, want 3", len(loops))
	}
	var par int
	for _, f := range loops {
		if f.Parallel {
			par++
			if f.IV != "__t" {
				t.Fatalf("parallel loop is %q, want __t", f.IV)
			}
		}
	}
	if par != 1 {
		t.Fatalf("parallel loops = %d", par)
	}
	// Functional equivalence: run both with M values that do not divide
	// evenly by the thread count.
	for _, m := range []float64{97, 100, 3} {
		params := map[string]float64{"D": 2, "M": m}
		mk := func() map[string][]float64 {
			a, b := make([]float64, 100), make([]float64, 100)
			for i := range a {
				a[i] = float64(i * 3)
			}
			return map[string][]float64{"A": a, "B": b}
		}
		d1, d2 := mk(), mk()
		for _, run := range []struct {
			k *ir.Kernel
			d map[string][]float64
		}{{k, d1}, {out, d2}} {
			prog, err := ir.NewProgram(run.k)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := prog.Run(params, run.d, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := range d1["B"] {
			if d1["B"][i] != d2["B"][i] {
				t.Fatalf("M=%g: B[%d] differs: %g vs %g", m, i, d1["B"][i], d2["B"][i])
			}
		}
	}
}

func TestStripMineLeavesNonParallelAlone(t *testing.T) {
	k, _, _ := vecAddKernel(64)
	if out := stripMineParallelInnermost(k, 4); out != k {
		t.Fatal("non-parallel kernel rewritten")
	}
}

func TestLaunchInvariant(t *testing.T) {
	cases := []struct {
		e    ir.Expr
		want bool
	}{
		{ir.C(3), true},
		{ir.AddE(ir.P("N"), ir.C(1)), true},
		{ir.V("i"), false},
		{ir.Ld("A", ir.C(0)), false},
		{ir.MulE(ir.P("N"), ir.V("t")), false},
		{ir.L("x"), false},
	}
	for _, c := range cases {
		if got := launchInvariant(c.e); got != c.want {
			t.Errorf("launchInvariant(%s) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestConfigConstructors(t *testing.T) {
	for _, cfg := range AllPaperConfigs() {
		if cfg.Name == "" {
			t.Fatal("unnamed config")
		}
		if cfg.HasAccel() && cfg.AccelGHz == 0 {
			t.Fatalf("%s: no accel clock", cfg.Name)
		}
	}
	if c := DistDAIO().WithClock(3); c.Name != "Dist-DA-IO@3GHz" || c.AccelGHz != 3 {
		t.Fatalf("WithClock: %+v", c)
	}
	if !DistDAIOSW().SWPrefetch || DistDAIOSW().IOWidth != 4 {
		t.Fatal("DistDAIOSW knobs")
	}
	if !DistDAFA().AllocSpread {
		t.Fatal("DistDAFA knobs")
	}
	if !MonoCA().Centralized || MonoCA().PrivCacheKB != 8 {
		t.Fatal("MonoCA knobs")
	}
}
