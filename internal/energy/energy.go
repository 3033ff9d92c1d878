// Package energy models per-event dynamic energy for all system components
// (processor, caches, interconnect, accelerators, access buffers, memory)
// in the spirit of the paper's McPAT + Cacti 32 nm configuration (§VI).
//
// Absolute joules are not the point — the paper's conclusions rest on the
// well-established ordering of per-event costs (DRAM ≫ L3 ≫ L2 ≫ L1 ≫ local
// buffer ≫ ALU) and on the large per-instruction overhead of an out-of-order
// pipeline versus an in-order core or a spatially configured fabric. The
// table below encodes published 32 nm-class values in picojoules.
package energy

import (
	"fmt"
	"strings"
)

// Table holds per-event dynamic energy costs in picojoules.
type Table struct {
	// Cache and memory, per access (one line or one word as noted).
	L1AccessPJ   float64 // per L1 access (word)
	L2AccessPJ   float64 // per L2 access (line probe)
	L3AccessPJ   float64 // per L3 bank access (line)
	DRAMAccessPJ float64 // per 64 B line activate+transfer (LPDDR)

	// Interconnect.
	NoCFlitHopPJ float64 // per 16 B flit per router hop
	MMIOPJ       float64 // per MMIO config/control transaction (endpoint cost)

	// Computation, per operation by functional class.
	IntOpPJ     float64
	ComplexOpPJ float64 // integer mul/div
	FloatOpPJ   float64

	// Per-instruction pipeline overhead (fetch/decode/schedule/commit).
	OoOInstrPJ  float64 // 5-way OoO: rename, ROB, LSQ, bypass — dominates
	IOInstrPJ   float64 // single-issue in-order accelerator core
	CGRAOpPJ    float64 // statically mapped fabric: config-driven, no fetch
	PIMOpPJ     float64 // bank-level in-DRAM compute unit: no front end
	RegFilePJ   float64 // scalar register file read/write
	BufferPJ    float64 // access-unit SRAM buffer read/write (per word)
	PrefetchPJ  float64 // prefetcher decision/issue overhead
	TranslatePJ float64 // obj-id+offset -> physical translation block lookup
}

// Default32nm returns the energy table used throughout the evaluation.
// Values follow published 32 nm characterizations (McPAT/Cacti-class):
// a 32 KB L1 read ≈ 20 pJ, 128 KB L2 ≈ 46 pJ, 2 MB NUCA L3 bank ≈ 94 pJ,
// an LPDDR line access ≈ 4.2 nJ (≈8 pJ/bit), mesh router+link ≈ 35
// pJ/flit/hop, 64-bit int add ≈ 0.6 pJ, int mul ≈ 3.5 pJ, FP op ≈ 4.6 pJ,
// and an Ice-Lake-class OoO pays ≈ 180 pJ of fetch/rename/ROB/LSQ overhead
// per instruction versus ≈ 14 pJ for a single-issue in-order core and
// ≈ 1.5 pJ per statically configured CGRA op.
func Default32nm() Table {
	return Table{
		L1AccessPJ:   20,
		L2AccessPJ:   46,
		L3AccessPJ:   94,
		DRAMAccessPJ: 4200,
		NoCFlitHopPJ: 35,
		MMIOPJ:       30,
		IntOpPJ:      0.6,
		ComplexOpPJ:  3.5,
		FloatOpPJ:    4.6,
		OoOInstrPJ:   180,
		IOInstrPJ:    14,
		CGRAOpPJ:     1.5,
		PIMOpPJ:      2.0,
		RegFilePJ:    1.2,
		BufferPJ:     2.4,
		PrefetchPJ:   4,
		TranslatePJ:  2,
	}
}

// Meter accumulates energy by component category, one fixed slot per
// Cat: Add sits on the per-event hot path of every simulated cache access,
// buffer touch and ALU op.
type Meter struct {
	Table   Table
	slots   [numCats]float64
	touched [numCats]bool // category has been Added (even with 0 pJ)
}

// NewMeter returns a meter over the given table.
func NewMeter(t Table) *Meter {
	return &Meter{Table: t}
}

// Reset returns m to the state NewMeter(t) would build: nothing charged.
func (m *Meter) Reset(t Table) { *m = Meter{Table: t} }

// Add accumulates pJ picojoules under category c.
func (m *Meter) Add(c Cat, pj float64) {
	m.slots[c] += pj
	m.touched[c] = true
}

// AddN accumulates n events of cost each pJ.
func (m *Meter) AddN(c Cat, n int64, each float64) {
	m.Add(c, float64(n)*each)
}

// Get returns the accumulated picojoules for a category.
func (m *Meter) Get(c Cat) float64 { return m.slots[c] }

// TotalPJ returns the grand total in picojoules. The sum runs in sorted
// category-name order (the Cat order): float addition is not associative,
// so the order is part of the bit-exact result every report renders.
func (m *Meter) TotalPJ() float64 {
	t := 0.0
	for _, c := range m.Categories() {
		t += m.Get(c)
	}
	return t
}

// Categories returns every category that has been charged at least once,
// in sorted name order.
func (m *Meter) Categories() []Cat {
	out := make([]Cat, 0, numCats)
	for c := Cat(0); c < numCats; c++ {
		if m.touched[c] {
			out = append(out, c)
		}
	}
	return out
}

// String renders a breakdown for reports.
func (m *Meter) String() string {
	var b strings.Builder
	for _, c := range m.Categories() {
		fmt.Fprintf(&b, "%-12s %12.1f pJ\n", c, m.Get(c))
	}
	fmt.Fprintf(&b, "%-12s %12.1f pJ\n", "total", m.TotalPJ())
	return b.String()
}

// Cat is a component energy category. The constants are declared in
// sorted name order, so slot order is name order.
type Cat uint8

// Component energy categories shared by all components.
const (
	CatAccel Cat = iota
	CatBuffer
	CatDRAM
	CatHost
	CatL1
	CatL2
	CatL3
	CatMMIO
	CatNoC
	numCats
)

var catNames = [numCats]string{"accel", "buffer", "dram", "host", "l1", "l2", "l3", "mmio", "noc"}

// String returns the category's report name ("l1", "dram", ...).
func (c Cat) String() string { return catNames[c] }

// Area model (§VI-E). Areas in mm² at 32 nm, matching the paper's overhead
// accounting: an in-order accelerator complex is 1.9 % of one L3 cache
// cluster and a provisioned 5x5 CGRA tile complex 2.9 %.
type Area struct {
	L3ClusterMM2 float64 // one 256 KB L3 cluster incl. NoC router share
	IOCoreMM2    float64 // 1-issue IO core + 2 complex + 2 FP ALUs + buffers + ACP
	CGRATileMM2  float64 // 5x5 CGRA (4 FP, 4 complex, 15 int PEs) + buffers + ACP
	ChipMM2      float64 // whole chip
}

// DefaultArea returns the area model calibrated so the reported overheads
// reproduce the paper's percentages.
func DefaultArea() Area {
	const cluster = 4.6 // mm², 256 KB NUCA cluster at 32 nm
	return Area{
		L3ClusterMM2: cluster,
		IOCoreMM2:    cluster * 0.019,
		CGRATileMM2:  cluster * 0.029,
		ChipMM2:      cluster * 8 / 0.162, // clusters are ~16 % of the chip
	}
}

// IOOverheadPerCluster returns the IO-core area as a fraction of a cluster.
func (a Area) IOOverheadPerCluster() float64 { return a.IOCoreMM2 / a.L3ClusterMM2 }

// CGRAOverheadPerCluster returns the CGRA area as a fraction of a cluster.
func (a Area) CGRAOverheadPerCluster() float64 { return a.CGRATileMM2 / a.L3ClusterMM2 }

// IOOverheadChip returns total IO-core area (8 clusters) over chip area.
func (a Area) IOOverheadChip() float64 { return 8 * a.IOCoreMM2 / a.ChipMM2 }

// CGRAOverheadChip returns total CGRA area (8 clusters) over chip area.
func (a Area) CGRAOverheadChip() float64 { return 8 * a.CGRATileMM2 / a.ChipMM2 }
