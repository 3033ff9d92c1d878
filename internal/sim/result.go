package sim

import (
	"fmt"
	"math"

	"distda/internal/core"
)

// Result aggregates everything the evaluation section reports for one
// (workload, configuration) run.
type Result struct {
	Config   string
	Workload string

	Cycles int64 // host-clock (2 GHz) cycles

	EnergyPJ    float64
	EnergyByCat map[string]float64

	HostInstr int64
	AccelOps  int64
	MemOps    int64 // host loads/stores + accelerator stream elements/random ops

	CacheL1 int64
	CacheL2 int64
	CacheL3 int64
	DRAM    int64

	NoCBytes map[string]int64 // Fig. 10 classes

	DABytes    int64 // Fig. 9
	AABytes    int64
	IntraBytes int64

	DataMovedBytes int64

	MMIO       core.IntrinsicStats
	MMIOHost   int64 // host-initiated MMIO transactions (%init numerator)
	Launches   int64
	AvgBuffers float64

	Validated bool
}

// Instructions returns the combined dynamic instruction count.
func (r *Result) Instructions() int64 { return r.HostInstr + r.AccelOps }

// IPC returns instructions per host cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions()) / float64(r.Cycles)
}

// MemOpRate returns memory operations per host cycle (Fig. 11a).
func (r *Result) MemOpRate() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.MemOps) / float64(r.Cycles)
}

// EnergyEfficiencyVs returns base.Energy / r.Energy (higher is better).
func (r *Result) EnergyEfficiencyVs(base *Result) float64 {
	if r.EnergyPJ == 0 {
		return 0
	}
	return base.EnergyPJ / r.EnergyPJ
}

// SpeedupVs returns base.Cycles / r.Cycles.
func (r *Result) SpeedupVs(base *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// DataMovementReductionVs returns base.DataMoved / r.DataMoved.
func (r *Result) DataMovementReductionVs(base *Result) float64 {
	if r.DataMovedBytes == 0 {
		return 0
	}
	return float64(base.DataMovedBytes) / float64(r.DataMovedBytes)
}

// InitOverheadPct is Table VI's %init: host MMIO transactions as a fraction
// of all memory operations.
func (r *Result) InitOverheadPct() float64 {
	if r.MemOps == 0 {
		return 0
	}
	return 100 * float64(r.MMIOHost) / float64(r.MemOps)
}

// collect builds the Result from the machine's counters.
func (m *machine) collect(workload string, validated bool) *Result {
	l1, l2, l3 := m.hier.CacheAccesses()
	m.austats.IntraBytes += m.intraBytes()
	res := &Result{
		Config:   m.cfg.Name,
		Workload: workload,
		Cycles:   m.hostCycles(),

		EnergyPJ:    m.meter.TotalPJ(),
		EnergyByCat: map[string]float64{},

		HostInstr: m.hostInstr,
		AccelOps:  m.accelOps,
		MemOps:    m.hostLoads + m.hostStores + m.accelMemElem,

		CacheL1: l1,
		CacheL2: l2,
		CacheL3: l3,
		DRAM:    m.dmem.Accesses,

		NoCBytes: m.mesh.BytesByClass(),

		DABytes:    m.austats.DABytes,
		AABytes:    m.austats.AABytes,
		IntraBytes: m.austats.IntraBytes,

		MMIO:       m.mmio,
		Launches:   m.launches,
		AvgBuffers: m.alloc.AvgBuffers(),
		Validated:  validated,
	}
	for _, c := range m.meter.Categories() {
		res.EnergyByCat[c.String()] = m.meter.Get(c)
	}
	for _, in := range []core.Intrinsic{core.CpConfig, core.CpConfigStream, core.CpConfigRandom,
		core.CpSetRF, core.CpLoadRF, core.CpRun} {
		res.MMIOHost += m.mmio[in]
	}
	// Data movement in bytes: every SRAM array read/write moves a line
	// (caches operate at line granularity), every buffer access moves a
	// word, plus everything crossing the NoC, the accelerator-bank
	// transfers, and DRAM line transfers. This is the quantity the paper's
	// byte-movement reduction compares: near-data execution replaces
	// line-granularity multi-level movement with word-granularity local
	// buffer traffic.
	line := int64(64)
	res.DataMovedBytes = line*(l1+l2+l3) + line*m.dmem.Accesses +
		m.mesh.TotalBytes() + m.austats.DABytes + m.austats.AABytes +
		8*m.bufAccesses
	if m.priv != nil {
		res.DataMovedBytes += line * m.priv.priv.Accesses
	}
	m.snapshotProfile(res)
	return res
}

// compareData checks simulated object contents against the reference
// program's output, with a small tolerance, 1e-9 × max(|got|, |want|, 1),
// for floating-point reassociation (none is expected: both execute in loop
// order). A non-finite value matches only an equal value, and NaN matches
// NaN: the tolerance test alone would pass any pair involving NaN or ±Inf,
// since its difference is NaN or its scale infinite.
func compareData(got, want map[string][]float64) error {
	for name, w := range want {
		g, ok := got[name]
		if !ok || len(g) != len(w) {
			return fmt.Errorf("sim: object %q missing or mis-sized in simulated memory", name)
		}
		for i := range w {
			if !dataMatch(g[i], w[i]) {
				return fmt.Errorf("sim: object %q diverges at [%d]: got %g, want %g", name, i, g[i], w[i])
			}
		}
	}
	return nil
}

func dataMatch(g, w float64) bool {
	switch {
	case g == w:
		return true
	case math.IsNaN(g) || math.IsNaN(w):
		return math.IsNaN(g) && math.IsNaN(w)
	case math.IsInf(g, 0) || math.IsInf(w, 0):
		return false
	}
	return math.Abs(g-w) <= 1e-9*math.Max(math.Max(math.Abs(g), math.Abs(w)), 1)
}
