package iocore

import (
	"testing"

	"distda/internal/accessunit"
	"distda/internal/core"
	"distda/internal/engine"
	"distda/internal/ir"
	"distda/internal/memfake"
	"distda/internal/microcode"
)

// chainProgram builds n dependent adds (r1 = r1+1 chains).
func chainProgram(n int) microcode.Program {
	var p microcode.Program
	for i := 0; i < n; i++ {
		o := microcode.NewOp(microcode.ALUI)
		o.Dst, o.A, o.Bin, o.Imm = 1, 1, ir.Add, 1
		p = append(p, o)
	}
	return p
}

// fanProgram builds n independent movs.
func fanProgram(n int) microcode.Program {
	var p microcode.Program
	for i := 0; i < n; i++ {
		o := microcode.NewOp(microcode.MovI)
		o.Dst, o.Imm = i+1, float64(i)
		p = append(p, o)
	}
	return p
}

func runWidth(t *testing.T, prog microcode.Program, width int, trips int64) int64 {
	t.Helper()
	def := &core.AccelDef{
		ID:      0,
		Program: prog,
		Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.C(float64(trips))},
	}
	mem := memfake.New(8, map[string][]float64{"A": make([]float64, 8)})
	rp := accessunit.NewRandomPort(mem, &memfake.Fetch{Lat: 4}, 0, &accessunit.Stats{}, nil)
	c, err := newCore(def, trips, nil, nil, rp, nil, width)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	eng.Add(c, 2)
	cycles, err := eng.Run(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	return cycles
}

func TestWidthSpeedsUpIndependentOps(t *testing.T) {
	w1 := runWidth(t, fanProgram(16), 1, 64)
	w4 := runWidth(t, fanProgram(16), 4, 64)
	if w4*3 > w1 {
		t.Fatalf("width 4 on independent ops: %d vs %d (want ~4x)", w4, w1)
	}
}

func TestWidthDoesNotBreakDependences(t *testing.T) {
	// A serial add chain cannot dual-issue: width 4 must not approach 4x.
	w1 := runWidth(t, chainProgram(16), 1, 64)
	w4 := runWidth(t, chainProgram(16), 4, 64)
	if w4*2 < w1 {
		t.Fatalf("width 4 on a dependent chain got %dx (%d vs %d)", w1/w4, w4, w1)
	}
	// Results must still be correct: 16 adds x 64 trips.
	def := &core.AccelDef{
		ID:      0,
		Program: chainProgram(16),
		Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.C(64)},
	}
	mem := memfake.New(8, map[string][]float64{"A": make([]float64, 8)})
	rp := accessunit.NewRandomPort(mem, &memfake.Fetch{Lat: 4}, 0, &accessunit.Stats{}, nil)
	c, err := newCore(def, 64, nil, nil, rp, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	eng.Add(c, 2)
	if _, err := eng.Run(1 << 22); err != nil {
		t.Fatal(err)
	}
	if got := c.Reg(1); got != 16*64 {
		t.Fatalf("r1 = %g, want %d", got, 16*64)
	}
}
