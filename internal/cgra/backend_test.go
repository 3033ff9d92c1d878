package cgra

import (
	"strings"
	"testing"

	"distda/internal/backend"
	"distda/internal/backend/backendtest"
	"distda/internal/core"
	"distda/internal/ir"
	"distda/internal/microcode"
)

func TestConformance(t *testing.T) {
	for _, grid := range []string{"5x5", "8x8"} {
		t.Run(grid, func(t *testing.T) {
			backendtest.Conformance(t, Backend, backend.Opt("grid", grid))
		})
	}
}

func TestRejectsMissingGrid(t *testing.T) {
	if err := Backend.ValidateOptions(nil); err == nil {
		t.Fatal("ValidateOptions accepted a config without a grid")
	}
}

// TestRejectsInvalidProgram: like the in-order backends, the fabric
// rejects a micro-program that names a register outside the file instead
// of faulting when it runs.
func TestRejectsInvalidProgram(t *testing.T) {
	o := microcode.NewOp(microcode.MovI)
	o.Dst, o.Imm = microcode.NumRegs, 1
	def := &core.AccelDef{Program: microcode.Program{o},
		Trip: core.TripSpec{Kind: core.TripCounted, Count: ir.C(1)}}
	_, err := Backend.NewEngine(backend.LaunchSpec{Def: def, Trips: 1, GHz: 1, Width: 1,
		Opts: backend.Options{backend.Opt("grid", "5x5")}})
	if err == nil || !strings.Contains(err.Error(), "invalid dst register") {
		t.Fatalf("NewEngine error = %v, want an invalid dst register", err)
	}
}

func TestResetMatchesNew(t *testing.T) {
	for _, grid := range []string{"5x5", "8x8"} {
		t.Run(grid, func(t *testing.T) {
			backendtest.ResetMatchesNew(t, Backend, backend.Opt("grid", grid))
		})
	}
}
