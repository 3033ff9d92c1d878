package energy

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestMeterResetMatchesNew: a meter that was charged (a 0 pJ charge
// included, which still lists its category), Reset to another table,
// equals NewMeter's meter for it and then accumulates like it.
func TestMeterResetMatchesNew(t *testing.T) {
	m := NewMeter(Default32nm())
	m.Add(CatL1, 20)
	m.AddN(CatDRAM, 3, 100)
	m.Add(CatNoC, 0)
	other := Default32nm()
	other.L1AccessPJ, other.DRAMAccessPJ = 7, 900
	m.Reset(other)
	fresh := NewMeter(other)
	if !reflect.DeepEqual(m, fresh) {
		t.Fatalf("reset meter differs from a new one:\nreset %+v\nnew   %+v", m, fresh)
	}
	for _, mm := range []*Meter{m, fresh} {
		mm.Add(CatHost, mm.Table.L1AccessPJ)
		mm.AddN(CatL3, 2, 5)
	}
	if m.String() != fresh.String() || !reflect.DeepEqual(m, fresh) {
		t.Fatalf("reset meter accumulates unlike a new one:\n%s\nvs\n%s", m, fresh)
	}
}

func TestMeterAccumulation(t *testing.T) {
	m := NewMeter(Default32nm())
	m.Add(CatL1, 20)
	m.Add(CatL1, 30)
	m.AddN(CatDRAM, 3, 100)
	if m.Get(CatL1) != 50 {
		t.Fatalf("L1 = %g", m.Get(CatL1))
	}
	if m.Get(CatDRAM) != 300 {
		t.Fatalf("DRAM = %g", m.Get(CatDRAM))
	}
	if m.TotalPJ() != 350 {
		t.Fatalf("total = %g", m.TotalPJ())
	}
	cats := m.Categories()
	if len(cats) != 2 || cats[0] != CatDRAM || cats[1] != CatL1 {
		t.Fatalf("categories = %v", cats)
	}
	if !strings.Contains(m.String(), "total") {
		t.Fatal("String() missing total")
	}
}

func TestDefaultTableOrdering(t *testing.T) {
	// The hierarchy-cost ordering that drives every paper conclusion.
	tab := Default32nm()
	if !(tab.DRAMAccessPJ > tab.L3AccessPJ && tab.L3AccessPJ > tab.L2AccessPJ &&
		tab.L2AccessPJ > tab.L1AccessPJ && tab.L1AccessPJ > tab.BufferPJ) {
		t.Fatal("memory energy ordering violated")
	}
	if !(tab.OoOInstrPJ > tab.IOInstrPJ && tab.IOInstrPJ > tab.CGRAOpPJ) {
		t.Fatal("pipeline overhead ordering violated")
	}
	if tab.ComplexOpPJ <= tab.IntOpPJ {
		t.Fatal("complex op should cost more than int op")
	}
}

func TestAreaMatchesPaperOverheads(t *testing.T) {
	a := DefaultArea()
	// §VI-E: IO 1.9 % per cluster (0.3 % chip), CGRA 2.9 % (0.48 % chip).
	if got := a.IOOverheadPerCluster(); math.Abs(got-0.019) > 1e-9 {
		t.Fatalf("IO per-cluster overhead = %g, want 0.019", got)
	}
	if got := a.CGRAOverheadPerCluster(); math.Abs(got-0.029) > 1e-9 {
		t.Fatalf("CGRA per-cluster overhead = %g, want 0.029", got)
	}
	if got := a.IOOverheadChip(); math.Abs(got-0.003) > 5e-4 {
		t.Fatalf("IO chip overhead = %g, want ~0.003", got)
	}
	if got := a.CGRAOverheadChip(); math.Abs(got-0.0048) > 8e-4 {
		t.Fatalf("CGRA chip overhead = %g, want ~0.0048", got)
	}
}
