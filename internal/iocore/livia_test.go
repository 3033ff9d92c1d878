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

// TestLiviaStyleTaskInvocation demonstrates the §IV-B observation that
// other offload models compose from the interface: Livia's memory-service
// migration is "cp_set_rf and cp_run to transfer operands and invoke an
// already configured accelerator". One accelerator is configured once; the
// host then dispatches per-item tasks purely with register writes and run
// commands — no reconfiguration.
func TestLiviaStyleTaskInvocation(t *testing.T) {
	table := make([]float64, 64)
	for i := range table {
		table[i] = float64(i * i)
	}
	mem := memfake.New(8, map[string][]float64{"table": table, "out": make([]float64, 8)})
	fetch := &memfake.Fetch{Lat: 12}
	stats := &accessunit.Stats{}
	rp := accessunit.NewRandomPort(mem, fetch, 0, stats, nil)

	// Service: out[r2] = table[r1] + 1 — a single-cacheline task.
	ld := microcode.NewOp(microcode.LoadObj)
	ld.Dst, ld.A, ld.Obj = 3, 1, "table"
	inc := microcode.NewOp(microcode.ALUI)
	inc.Dst, inc.A, inc.Bin, inc.Imm = 3, 3, ir.Add, 1
	st := microcode.NewOp(microcode.StoreObj)
	st.A, st.B, st.Obj = 2, 3, "out"
	def := &core.AccelDef{
		ID:      0,
		Name:    "service",
		Objects: []string{"table", "out"},
		Program: microcode.Program{ld, inc, st},
		Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.C(1)},
	}

	// cp_config happened once (the def exists); every task is cp_set_rf x2
	// + cp_run on a fresh single-trip orchestration.
	tasks := []struct{ key, slot int }{{5, 0}, {9, 1}, {63, 2}, {0, 3}}
	for _, task := range tasks {
		c, err := newCore(def, 1, nil, nil, rp, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		c.SetReg(1, float64(task.key))  // cp_set_rf operand
		c.SetReg(2, float64(task.slot)) // cp_set_rf result slot
		eng := engine.New()
		eng.Add(c, 2) // cp_run
		if _, err := eng.Run(1 << 16); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks {
		want := float64(task.key*task.key + 1)
		if got := mem.Objs["out"][task.slot]; got != want {
			t.Fatalf("out[%d] = %g, want %g", task.slot, got, want)
		}
	}
}
