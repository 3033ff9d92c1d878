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
	"sort"
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

// Meter accumulates energy by component category. The canonical
// categories are backed by fixed array slots: Add sits on the per-event
// hot path of every simulated cache access, buffer touch and ALU op, and
// a map assignment there (string hash + probe) showed up as the single
// largest cost in the whole-repro CPU profile. Non-canonical categories
// fall back to a map so the API stays open.
type Meter struct {
	Table   Table
	slots   [numCats]float64
	touched [numCats]bool // category has been Added (even with 0 pJ)
	pj      map[string]float64
}

// NewMeter returns a meter over the given table.
func NewMeter(t Table) *Meter {
	return &Meter{Table: t, pj: map[string]float64{}}
}

// Add accumulates pJ picojoules under the named category.
func (m *Meter) Add(category string, pj float64) {
	if i := catIndex(category); i >= 0 {
		m.slots[i] += pj
		m.touched[i] = true
		return
	}
	m.pj[category] += pj
}

// AddN accumulates n events of cost each pJ.
func (m *Meter) AddN(category string, n int64, each float64) {
	m.Add(category, float64(n)*each)
}

// Get returns the accumulated picojoules for a category.
func (m *Meter) Get(category string) float64 {
	if i := catIndex(category); i >= 0 {
		return m.slots[i]
	}
	return m.pj[category]
}

// TotalPJ returns the grand total in picojoules. The sum runs in sorted
// category order: map iteration order is random per run, and float
// addition is not associative, so a map-order sum would make the low
// bits of the total differ between otherwise identical runs — breaking
// bit-exact reproducibility of rendered reports.
func (m *Meter) TotalPJ() float64 {
	t := 0.0
	for _, c := range m.Categories() {
		t += m.Get(c)
	}
	return t
}

// Categories returns the names of every category that has been charged
// at least once, sorted.
func (m *Meter) Categories() []string {
	out := make([]string, 0, numCats+len(m.pj))
	for i, name := range catNames {
		if m.touched[i] {
			out = append(out, name)
		}
	}
	for k := range m.pj {
		out = append(out, k)
	}
	sort.Strings(out)
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

// Canonical category names shared by all components.
const (
	CatHost   = "host"
	CatL1     = "l1"
	CatL2     = "l2"
	CatL3     = "l3"
	CatDRAM   = "dram"
	CatNoC    = "noc"
	CatAccel  = "accel"
	CatBuffer = "buffer"
	CatMMIO   = "mmio"
)

// catNames lists the canonical categories in slot order.
var catNames = [...]string{
	CatHost, CatL1, CatL2, CatL3, CatDRAM, CatNoC, CatAccel, CatBuffer, CatMMIO,
}

const numCats = len(catNames)

// catIndex maps a canonical category name to its accumulator slot, or -1.
// A string switch compiles to length dispatch plus a handful of compares —
// far cheaper than the hash a map assignment would pay per event.
func catIndex(category string) int {
	switch category {
	case CatHost:
		return 0
	case CatL1:
		return 1
	case CatL2:
		return 2
	case CatL3:
		return 3
	case CatDRAM:
		return 4
	case CatNoC:
		return 5
	case CatAccel:
		return 6
	case CatBuffer:
		return 7
	case CatMMIO:
		return 8
	}
	return -1
}

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
