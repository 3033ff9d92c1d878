package cgra

import (
	"math/rand"
	"testing"

	"distda/internal/backend"
	"distda/internal/core"
	"distda/internal/engine"
	"distda/internal/iocore"
	"distda/internal/ir"
	"distda/internal/microcode"
	"distda/internal/pimdram"
)

// randProgram builds a random straight-line arithmetic micro-program over a
// small register window, including predication, selects and loop-carried
// recurrences — everything except memory and channel ops.
func randProgram(r *rand.Rand, n int) microcode.Program {
	const regs = 8
	bins := []ir.BinOp{ir.Add, ir.Sub, ir.Mul, ir.Min, ir.Max, ir.Lt, ir.Ge, ir.And, ir.Or, ir.Ne}
	uns := []ir.UnOp{ir.Neg, ir.Abs, ir.Not, ir.Floor}
	var p microcode.Program
	for i := 0; i < n; i++ {
		o := microcode.NewOp(microcode.Nop)
		switch r.Intn(6) {
		case 0:
			o.Code = microcode.MovI
			o.Dst = r.Intn(regs)
			o.Imm = float64(r.Intn(21) - 10)
		case 1:
			o.Code = microcode.Mov
			o.Dst, o.A = r.Intn(regs), r.Intn(regs)
		case 2:
			o.Code = microcode.ALU
			o.Dst, o.A, o.B = r.Intn(regs), r.Intn(regs), r.Intn(regs)
			o.Bin = bins[r.Intn(len(bins))]
		case 3:
			o.Code = microcode.ALUI
			o.Dst, o.A = r.Intn(regs), r.Intn(regs)
			o.Bin = bins[r.Intn(len(bins))]
			o.Imm = float64(r.Intn(9) - 4)
		case 4:
			o.Code = microcode.Un
			o.Dst, o.A = r.Intn(regs), r.Intn(regs)
			o.UnOp = uns[r.Intn(len(uns))]
		case 5:
			o.Code = microcode.SelOp
			o.Dst, o.A, o.B, o.C = r.Intn(regs), r.Intn(regs), r.Intn(regs), r.Intn(regs)
		}
		// Predicate only non-channel ops (the mapper requires that anyway).
		if r.Intn(4) == 0 {
			o.Pred = r.Intn(regs)
		}
		p = append(p, o)
	}
	// An Iter op ties results to the iteration count.
	it := microcode.NewOp(microcode.Iter)
	it.Dst = r.Intn(regs)
	return append(p, it)
}

// TestIOAndFabricComputeIdentically runs the same random programs on the
// in-order core, the CGRA fabric and the PIM-in-DRAM engine (R3: the
// interface must not dictate the substrate) and compares the full
// register files.
func TestIOAndFabricComputeIdentically(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		prog := randProgram(r, 3+r.Intn(12))
		trips := int64(1 + r.Intn(9))
		def := &core.AccelDef{
			ID:      0,
			Program: prog,
			Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.C(float64(trips))},
		}
		init := make([]float64, 8)
		for i := range init {
			init[i] = float64(r.Intn(11) - 5)
		}
		var regs [3][8]float64
		for i, sub := range []struct {
			name string
			be   backend.Backend
			ghz  int
		}{{"iocore", iocore.Backend, 2}, {"fabric", Backend, 1}, {"pimdram", pimdram.Backend, 1}} {
			e, err := sub.be.NewEngine(backend.LaunchSpec{Def: def, Trips: trips, GHz: sub.ghz, Width: 1,
				Opts: backend.Options{backend.Opt("grid", "8x8")}})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, sub.name, err)
			}
			for reg, v := range init {
				e.SetReg(reg, v)
			}
			eng := engine.New()
			eng.Add(e, sub.ghz)
			if _, err := eng.Run(1 << 22); err != nil {
				t.Fatalf("trial %d %s: %v", trial, sub.name, err)
			}
			for reg := range regs[i] {
				regs[i][reg] = e.Reg(reg)
			}
		}
		for reg := 0; reg < 8; reg++ {
			a := regs[0][reg]
			for i, name := range []string{"fabric", "pimdram"} {
				if b := regs[i+1][reg]; a != b && !(a != a && b != b) { // NaN == NaN for this purpose
					t.Fatalf("trial %d: r%d diverges: iocore %g vs %s %g\nprogram:\n%s",
						trial, reg, a, name, b, prog)
				}
			}
		}
	}
}

// TestWidth4MatchesWidth1Functionally checks the multi-issue in-order core
// against single issue on the same random programs.
func TestWidth4MatchesWidth1Functionally(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		prog := randProgram(r, 3+r.Intn(12))
		trips := int64(1 + r.Intn(5))
		def := &core.AccelDef{
			ID:      0,
			Program: prog,
			Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.C(float64(trips))},
		}
		run := func(width int) []float64 {
			c, err := iocore.Backend.NewEngine(backend.LaunchSpec{Def: def, Trips: trips, GHz: 2, Width: width})
			if err != nil {
				t.Fatal(err)
			}
			e := engine.New()
			e.Add(c, 2)
			if _, err := e.Run(1 << 22); err != nil {
				t.Fatal(err)
			}
			out := make([]float64, 8)
			for i := range out {
				out[i] = c.Reg(i)
			}
			return out
		}
		w1, w4 := run(1), run(4)
		for i := range w1 {
			if w1[i] != w4[i] && !(w1[i] != w1[i] && w4[i] != w4[i]) {
				t.Fatalf("trial %d: r%d: width1 %g vs width4 %g\n%s", trial, i, w1[i], w4[i], prog)
			}
		}
	}
}
