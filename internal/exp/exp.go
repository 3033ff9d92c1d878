// Package exp runs the paper's experiments: every table and figure of §VI
// is a list of cells plus a renderer over their results, and one worker
// pool runs the cells of every selected section (Render).
package exp

import (
	"fmt"

	"distda/internal/core"
	"distda/internal/ir"
	"distda/internal/profile"
	"distda/internal/report"
	"distda/internal/sim"
	"distda/internal/stats"
	"distda/internal/trace"
	"distda/internal/workloads"
)

// Matrix holds one result per (workload, configuration). Cells that
// degraded (per-cell timeout, see Options.CellTimeout) have no entry in Res
// and carry their reason in Degraded; renderers emit report.NA for them.
type Matrix struct {
	Scale     workloads.Scale
	Workloads []*workloads.Workload
	Configs   []sim.Config
	Res       map[string]map[string]*sim.Result
	Degraded  map[string]map[string]string // workload → config → reason
}

// DegradedCount returns the number of cells that rendered n/a.
func (m *Matrix) DegradedCount() int {
	n := 0
	for _, byCfg := range m.Degraded {
		n += len(byCfg)
	}
	return n
}

// Observe configures observability for a run. Every cell owns its private
// tracer and profiler (recording stays lock-free inside the worker), so
// traced or profiled runs remain byte-identical at any worker count.
type Observe struct {
	// TraceDone, when non-nil, traces every simulated cell: each runs with
	// a fresh tracer, handed to TraceDone with the cell's name as soon as
	// the cell has run (degraded and failed cells included), before its
	// Progress event. Names are "<workload>-<config>" for a matrix cell and
	// "<section>-<NN>-<workload>-<config>" for the NN-th cell of a figure
	// section (fig12a, fig12b, fig13, fig14, sens, offchip, pim,
	// ablations), unique within a run. The run keeps no reference to the
	// tracer afterwards, so a consumer that writes it out and drops it
	// holds at most one tracer per worker. Calls are serialized. An error
	// fails the cell.
	TraceDone func(cell string, tr *trace.Tracer) error
	// Profile, when non-nil, receives every cell's cycle/energy attribution:
	// each cell runs with a private profiler (recording stays lock-free
	// inside the worker) folded into Profile in plan order after the
	// parallel phase. Merge is commutative, so the folded profile is
	// identical at any worker count.
	Profile *profile.Profiler
}

func (m *Matrix) get(w, cfg string) *sim.Result { return m.Res[w][cfg] }

// configNames returns the config column labels (skipping the baseline when
// skipBase).
func (m *Matrix) configNames(skipBase bool) []string {
	var out []string
	for i, c := range m.Configs {
		if skipBase && i == 0 {
			continue
		}
		out = append(out, c.Name)
	}
	return out
}

// ratioTable renders one ratio-vs-OoO figure: rows per workload plus a
// geometric-mean row.
func (m *Matrix) ratioTable(title string, metric func(base, r *sim.Result) float64) *report.Table {
	t := &report.Table{Title: title, Columns: append([]string{"benchmark"}, m.configNames(true)...)}
	gm := map[string][]float64{}
	for _, w := range m.Workloads {
		base := m.get(w.Name, "OoO")
		row := []string{w.Name}
		for _, cfg := range m.Configs[1:] {
			r := m.get(w.Name, cfg.Name)
			if base == nil || r == nil {
				row = append(row, report.NA)
				continue
			}
			v := metric(base, r)
			gm[cfg.Name] = append(gm[cfg.Name], v)
			row = append(row, report.F(v))
		}
		t.AddRow(row...)
	}
	row := []string{"geomean"}
	for _, cfg := range m.Configs[1:] {
		if len(gm[cfg.Name]) == 0 {
			row = append(row, report.NA)
			continue
		}
		row = append(row, report.F(stats.Geomean(gm[cfg.Name])))
	}
	t.AddRow(row...)
	if n := m.DegradedCount(); n > 0 {
		t.AddNote("%d cell(s) degraded to n/a; geomeans cover completed cells only", n)
	}
	return t
}

// Fig7EnergyEfficiency renders normalized energy efficiency (OoO = 1).
func (m *Matrix) Fig7EnergyEfficiency() *report.Table {
	t := m.ratioTable("Fig. 7: normalized energy efficiency (vs OoO)",
		func(base, r *sim.Result) float64 { return r.EnergyEfficiencyVs(base) })
	t.AddNote("paper GM targets: Dist-DA-F 3.3x vs OoO, 2.46x vs Mono-CA, 1.46x vs Mono-DA-IO")
	return t
}

// Fig8CacheAccesses renders normalized cache access counts (lower is
// better; OoO = 1).
func (m *Matrix) Fig8CacheAccesses() *report.Table {
	return m.ratioTable("Fig. 8: normalized #cache accesses (vs OoO, lower is better)",
		func(base, r *sim.Result) float64 {
			return stats.Ratio(float64(r.CacheL1+r.CacheL2+r.CacheL3), float64(base.CacheL1+base.CacheL2+base.CacheL3))
		})
}

// Fig9AccessDistribution renders the Dist-DA-F dynamic access distribution:
// intra-buffer vs accelerator-cache (D-A) vs inter-accelerator (A-A) bytes.
func (m *Matrix) Fig9AccessDistribution() *report.Table {
	t := &report.Table{
		Title:   "Fig. 9: dynamic access distribution, Dist-DA-F (% of accel bytes)",
		Columns: []string{"benchmark", "intra%", "D-A%", "A-A%"},
	}
	for _, w := range m.Workloads {
		r := m.get(w.Name, "Dist-DA-F")
		if r == nil {
			t.AddRow(w.Name, report.NA, report.NA, report.NA)
			continue
		}
		total := float64(r.IntraBytes + r.DABytes + r.AABytes)
		if total == 0 {
			total = 1
		}
		t.AddRow(w.Name,
			report.F(100*float64(r.IntraBytes)/total),
			report.F(100*float64(r.DABytes)/total),
			report.F(100*float64(r.AABytes)/total))
	}
	return t
}

// Fig10NoCTraffic renders the NoC byte breakdown for Mono-DA-IO vs
// Dist-DA-F, normalized to Mono-DA-IO's total.
func (m *Matrix) Fig10NoCTraffic() *report.Table {
	t := &report.Table{
		Title: "Fig. 10: NoC bytes by class (normalized to Mono-DA-IO total)",
		Columns: []string{"benchmark",
			"mono:ctrl", "mono:data", "mono:acc_ctrl", "mono:acc_data",
			"dist:ctrl", "dist:data", "dist:acc_ctrl", "dist:acc_data"},
	}
	classes := []string{"ctrl", "data", "acc_ctrl", "acc_data"}
	for _, w := range m.Workloads {
		mono := m.get(w.Name, "Mono-DA-IO")
		dist := m.get(w.Name, "Dist-DA-F")
		if mono == nil || dist == nil {
			row := []string{w.Name}
			for range classes {
				row = append(row, report.NA, report.NA)
			}
			t.AddRow(row...)
			continue
		}
		var monoTotal int64
		for _, c := range classes {
			monoTotal += mono.NoCBytes[c]
		}
		if monoTotal == 0 {
			monoTotal = 1
		}
		row := []string{w.Name}
		for _, r := range []*sim.Result{mono, dist} {
			for _, c := range classes {
				row = append(row, report.F(float64(r.NoCBytes[c])/float64(monoTotal)))
			}
		}
		t.AddRow(row...)
	}
	t.AddNote("Dist-DA reduces inter-accelerator (acc_*) traffic vs Mono-DA (§VI-B)")
	return t
}

// Fig11aIPC renders IPC and memory-operation rate normalized to OoO.
func (m *Matrix) Fig11aIPC() *report.Table {
	t := &report.Table{
		Title:   "Fig. 11a: normalized IPC | mem-op rate (vs OoO)",
		Columns: append([]string{"benchmark"}, m.configNames(true)...),
	}
	for _, w := range m.Workloads {
		base := m.get(w.Name, "OoO")
		row := []string{w.Name}
		for _, cfg := range m.Configs[1:] {
			r := m.get(w.Name, cfg.Name)
			if base == nil || r == nil {
				row = append(row, report.NA)
				continue
			}
			row = append(row, fmt.Sprintf("%s|%s",
				report.F(stats.Ratio(r.IPC(), base.IPC())),
				report.F(stats.Ratio(r.MemOpRate(), base.MemOpRate()))))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig11bSpeedup renders speedup over OoO.
func (m *Matrix) Fig11bSpeedup() *report.Table {
	t := m.ratioTable("Fig. 11b: speedup (vs OoO)",
		func(base, r *sim.Result) float64 { return r.SpeedupVs(base) })
	t.AddNote("paper GM targets: Dist-DA-F 1.59x vs OoO, 1.43x vs Mono-CA, 1.65x vs Mono-DA-IO")
	return t
}

// DataMovement renders byte-movement reduction vs OoO (higher is better).
func (m *Matrix) DataMovement() *report.Table {
	t := m.ratioTable("Data movement reduction (OoO bytes / config bytes)",
		func(base, r *sim.Result) float64 { return r.DataMovementReductionVs(base) })
	t.AddNote("paper GM targets for Dist-DA-F: 2.4x vs OoO, 3.5x vs Mono-CA, 1.48x vs Mono-DA-IO")
	return t
}

// Headline renders the paper's abstract triple — (energy efficiency;
// speedup; data-movement reduction) geomeans of Dist-DA-F against the three
// baselines.
func (m *Matrix) Headline() *report.Table {
	t := &report.Table{
		Title:   "Headline geomeans: Dist-DA-F vs baseline (energy eff; speedup; data movement)",
		Columns: []string{"baseline", "energy-eff", "speedup", "data-movement"},
	}
	geo := func(vs []float64) string {
		if len(vs) == 0 {
			return report.NA
		}
		return report.F(stats.Geomean(vs))
	}
	for _, baseName := range []string{"OoO", "Mono-CA", "Mono-DA-IO"} {
		var eff, spd, dm []float64
		for _, w := range m.Workloads {
			base := m.get(w.Name, baseName)
			r := m.get(w.Name, "Dist-DA-F")
			if base == nil || r == nil {
				continue // degraded cell: the geomean covers completed cells
			}
			eff = append(eff, r.EnergyEfficiencyVs(base))
			spd = append(spd, r.SpeedupVs(base))
			dm = append(dm, r.DataMovementReductionVs(base))
		}
		t.AddRow(baseName, geo(eff), geo(spd), geo(dm))
	}
	t.AddNote("paper: (3.3; 1.59; 2.4) vs OoO, (2.46; 1.43; 3.5) vs Mono-CA, (1.46; 1.65; 1.48) vs Mono-DA-IO")
	// Compute specialization: Dist-DA-F vs Dist-DA-IO (paper: 1.23x energy, 1.43x speedup).
	var eff, spd []float64
	for _, w := range m.Workloads {
		io := m.get(w.Name, "Dist-DA-IO")
		f := m.get(w.Name, "Dist-DA-F")
		if io == nil || f == nil {
			continue
		}
		eff = append(eff, f.EnergyEfficiencyVs(io))
		spd = append(spd, f.SpeedupVs(io))
	}
	t.AddRow("Dist-DA-IO", geo(eff), geo(spd), "-")
	if n := m.DegradedCount(); n > 0 {
		t.AddNote("%d cell(s) degraded to n/a; geomeans cover completed cells only", n)
	}
	return t
}

// Tab6OffloadCharacteristics reproduces Table VI: code/data coverage,
// initialization overhead, buffers, instruction counts and DFG dimensions
// for the Dist-DA-IO configuration.
func (m *Matrix) Tab6OffloadCharacteristics() (*report.Table, error) {
	t := &report.Table{
		Title:   "Table VI: offload characteristics (Dist-DA-IO)",
		Columns: []string{"benchmark", "%cc", "%dc", "%init", "#buf", "#insts", "DFG dim", "insts(B)"},
	}
	for _, w := range m.Workloads {
		compiled, err := sim.Compiled(w.Kernel, sim.DistDAIO())
		if err != nil {
			return nil, err
		}
		prog, err := ir.NewProgram(w.Kernel)
		if err != nil {
			return nil, err
		}
		counts, err := prog.Run(w.Params, w.NewData(), nil)
		if err != nil {
			return nil, err
		}
		var offInstr, offMem int64
		for loop, reg := range compiled.ByLoop {
			if len(reg.Accels) == 0 {
				continue
			}
			if lc := counts.ByLoop[loop]; lc != nil {
				offInstr += lc.Ops + lc.Loads + lc.Stores + 2*lc.Trips
				offMem += lc.Loads + lc.Stores
			}
		}
		cc := 100 * float64(offInstr) / float64(counts.Instructions())
		dc := 100 * float64(offMem) / float64(counts.MemOps())
		res := m.get(w.Name, "Dist-DA-IO")
		maxInsts, dimW, dimH := 0, 0, 0
		for _, info := range compiled.Infos {
			if info.Offloaded() && info.Insts > maxInsts {
				maxInsts = info.Insts
				dimW, dimH, _ = info.Graph.Dims()
			}
		}
		// The run-derived columns degrade independently of the static
		// (compile-derived) ones.
		initPct, avgBuf := report.NA, report.NA
		if res != nil {
			initPct = fmt.Sprintf("%.2f", res.InitOverheadPct())
			avgBuf = report.F(res.AvgBuffers)
		}
		t.AddRow(w.Name,
			report.F(cc), report.F(dc),
			initPct,
			avgBuf,
			fmt.Sprintf("%d", maxInsts),
			fmt.Sprintf("%dx%d", dimW, dimH),
			fmt.Sprintf("%d", maxInsts*8))
	}
	return t, nil
}

// Tab5MechanismCoverage reproduces Table V: which interface mechanisms each
// benchmark's compiled offloads exercise (C = compiler automated).
func (m *Matrix) Tab5MechanismCoverage() *report.Table {
	cols := []core.Intrinsic{core.CpProduce, core.CpConsume, core.CpWrite, core.CpRead, core.CpStep,
		core.CpFillBuf, core.CpDrainBuf, core.CpConfig, core.CpConfigStream, core.CpSetRF, core.CpLoadRF, core.CpRun}
	t := &report.Table{
		Title:   "Table V: interface mechanism coverage (C = compiler automated)",
		Columns: []string{"benchmark"},
	}
	for _, in := range cols {
		t.Columns = append(t.Columns, in.String())
	}
	for _, w := range m.Workloads {
		r := m.get(w.Name, "Dist-DA-IO")
		row := []string{w.Name}
		for _, in := range cols {
			switch {
			case r == nil:
				row = append(row, report.NA)
			case r.MMIO[in] > 0:
				row = append(row, "C")
			default:
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Tab4Workloads reproduces Table IV's workload inventory.
func (m *Matrix) Tab4Workloads() *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Table IV: workloads (%s scale)", m.Scale),
		Columns: []string{"benchmark", "input dataset"},
	}
	for _, w := range m.Workloads {
		t.AddRow(w.Name, w.Desc)
	}
	return t
}
