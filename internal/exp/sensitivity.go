package exp

import (
	"fmt"

	"distda/internal/energy"
	"distda/internal/report"
	"distda/internal/sim"
	"distda/internal/workloads"
)

// figure is one simulated section of §VI: its cells, declared in the
// order their inputs are drawn on the section's own workload instances,
// and the table it renders from their results. A degraded (timed-out)
// cell's result is nil and renders report.NA.
type figure struct {
	cells  []Cell
	render func(res []*sim.Result) *report.Table
}

// figures maps each simulated section to its declaration.
var figures = map[string]func(workloads.Scale) figure{
	"fig12a":    fig12aCaseStudies,
	"fig12b":    fig12bMultithread,
	"fig13":     fig13Clocking,
	"fig14":     fig14SoftwareOpt,
	"sens":      sensWorkingSet,
	"offchip":   offChipExtension,
	"pim":       pimExtension,
	"ablations": ablations,
}

// vs formats f(r, base), or report.NA when either cell degraded.
func vs(r, base *sim.Result, f func(r, base *sim.Result) float64) string {
	if r == nil || base == nil {
		return report.NA
	}
	return report.F(f(r, base))
}

// speedupEnergy formats "speedup|energy eff." of r against base, or
// report.NA when either cell degraded.
func speedupEnergy(r, base *sim.Result) string {
	if r == nil || base == nil {
		return report.NA
	}
	return fmt.Sprintf("%s|%s", report.F(r.SpeedupVs(base)), report.F(r.EnergyEfficiencyVs(base)))
}

// fig12bMultithread is the §VI-D multithreading case study: bfs and
// pathfinder scaled across 1/2/4/8 threads, normalized to single-threaded
// OoO. Stream specialization is skipped, matching the paper's framework
// limitation.
func fig12bMultithread(scale workloads.Scale) figure {
	ws := []*workloads.Workload{workloads.BFSMT(scale), workloads.PathfinderMT(scale)}
	cfgs := []sim.Config{sim.OoO(), sim.MustConfig(sim.DistDAIO,
		sim.WithName("Dist-DA-IO"),
		sim.WithoutStreamSpecialization())}
	threads := []int{1, 2, 4, 8}
	var cells []Cell
	for _, w := range ws {
		cells = append(cells, Cell{W: w, Scale: scale, Cfg: sim.OoO(), Threads: 1}) // the baseline
		for _, cfg := range cfgs {
			for _, n := range threads {
				cells = append(cells, Cell{W: w, Scale: scale, Cfg: cfg, Threads: n})
			}
		}
	}
	return figure{cells: cells, render: func(res []*sim.Result) *report.Table {
		t := &report.Table{
			Title:   "Fig. 12b: multithreading speedup (vs 1-thread OoO)",
			Columns: []string{"benchmark", "config", "x1", "x2", "x4", "x8"},
		}
		per := 1 + len(cfgs)*len(threads)
		for i, w := range ws {
			base := res[i*per]
			for j, cfg := range cfgs {
				row := []string{w.Name, cfg.Name}
				for n := range threads {
					row = append(row, vs(res[i*per+1+j*len(threads)+n], base, (*sim.Result).SpeedupVs))
				}
				t.AddRow(row...)
			}
		}
		t.AddNote("stream specialization skipped for Dist-DA threads (§VI-D)")
		return t
	}}
}

// fig13Clocking sweeps the Dist-DA-IO accelerator clock 1→3 GHz and
// reports speedup and IPC normalized to 1 GHz.
func fig13Clocking(scale workloads.Scale) figure {
	ws := workloads.All(scale)
	ghzs := []int{1, 2, 3}
	var cells []Cell
	for _, w := range ws {
		for _, ghz := range ghzs {
			cells = append(cells, Cell{W: w, Scale: scale, Cfg: sim.DistDAIO().WithClock(ghz)})
		}
	}
	return figure{cells: cells, render: func(res []*sim.Result) *report.Table {
		t := &report.Table{
			Title:   "Fig. 13: clocking sensitivity, Dist-DA-IO (speedup | IPC vs 1 GHz)",
			Columns: []string{"benchmark", "1GHz", "2GHz", "3GHz"},
		}
		for i, w := range ws {
			base := res[i*len(ghzs)]
			row := []string{w.Name}
			for g, ghz := range ghzs {
				r := res[i*len(ghzs)+g]
				if r == nil || base == nil {
					row = append(row, report.NA)
					continue
				}
				// IPC here is per accelerator cycle: at a higher clock the
				// same work takes more (shorter) cycles, so stalls depress
				// it — the effect Fig. 13 reports.
				speedup := r.SpeedupVs(base)
				row = append(row, fmt.Sprintf("%s|%s", report.F(speedup), report.F(speedup/float64(ghz))))
			}
			t.AddRow(row...)
		}
		t.AddNote("speedup grows sub-linearly and IPC drops for access-dominated benchmarks (§VI-E)")
		return t
	}}
}

// fig14SoftwareOpt evaluates Dist-DA-IO+SW (width 4, software prefetch) and
// Dist-DA-F+A (allocation customization), normalized to Dist-DA-IO.
func fig14SoftwareOpt(scale workloads.Scale) figure {
	ws := workloads.All(scale)
	var cells []Cell
	for _, w := range ws {
		for _, cfg := range []sim.Config{sim.DistDAIO(), sim.DistDAIOSW(), sim.DistDAFA()} {
			cells = append(cells, Cell{W: w, Scale: scale, Cfg: cfg})
		}
	}
	return figure{cells: cells, render: func(res []*sim.Result) *report.Table {
		t := &report.Table{
			Title:   "Fig. 14: software optimizations (speedup | energy eff. vs Dist-DA-IO)",
			Columns: []string{"benchmark", "Dist-DA-IO+SW", "Dist-DA-F+A"},
		}
		for i, w := range ws {
			base := res[3*i]
			t.AddRow(w.Name, speedupEnergy(res[3*i+1], base), speedupEnergy(res[3*i+2], base))
		}
		return t
	}}
}

// sensWorkingSet grows fdtd-2d's working set past the 2 MB LLC and compares
// Dist-DA against the Mono-DA baseline (§VI-E: on-chip movement still drops
// ~2.5x; energy gain shrinks to ~10%).
func sensWorkingSet(scale workloads.Scale) figure {
	sizes := []workloads.Scale{workloads.ScaleTest, scale}
	if scale == workloads.ScaleTest {
		sizes = []workloads.Scale{workloads.ScaleTest, workloads.ScaleBench}
	}
	var ws []*workloads.Workload
	var cells []Cell
	for _, s := range sizes {
		w := workloads.FDTD2D(s)
		ws = append(ws, w)
		cells = append(cells, Cell{W: w, Scale: s, Cfg: sim.MonoDAIO()}, Cell{W: w, Scale: s, Cfg: sim.DistDAF()})
	}
	return figure{cells: cells, render: func(res []*sim.Result) *report.Table {
		t := &report.Table{
			Title:   "Working-set sensitivity: fdtd-2d, Dist-DA-F vs Mono-DA-IO",
			Columns: []string{"size", "on-chip movement reduction", "energy eff. gain"},
		}
		for i, w := range ws {
			mono, dist := res[2*i], res[2*i+1]
			t.AddRow(w.Desc,
				vs(dist, mono, (*sim.Result).DataMovementReductionVs),
				vs(dist, mono, (*sim.Result).EnergyEfficiencyVs))
		}
		return t
	}}
}

// Tab3Area renders the §VI-E area model.
func Tab3Area() *report.Table {
	a := energy.DefaultArea()
	t := &report.Table{
		Title:   "Area overheads (32 nm, §VI-E)",
		Columns: []string{"resource", "per L3 cluster", "whole chip"},
	}
	t.AddRow("IO core complex",
		fmt.Sprintf("%.1f%%", 100*a.IOOverheadPerCluster()),
		fmt.Sprintf("%.2f%%", 100*a.IOOverheadChip()))
	t.AddRow("5x5 CGRA tile",
		fmt.Sprintf("%.1f%%", 100*a.CGRAOverheadPerCluster()),
		fmt.Sprintf("%.2f%%", 100*a.CGRAOverheadChip()))
	t.AddNote("paper: IO 1.9%%/cluster (0.3%% chip), CGRA 2.9%%/cluster (0.48%% chip)")
	return t
}

// Tab3Params renders the simulated parameters (Table III).
func Tab3Params() *report.Table {
	t := &report.Table{Title: "Table III: simulated parameters", Columns: []string{"component", "configuration"}}
	t.AddRow("OoO core", "2 GHz, width-4 issue, MLP 6, dependence-aware stall model")
	t.AddRow("L1 D", "32 KB 8-way, 64 B lines, latency 2")
	t.AddRow("L2", "128 KB 16-way, latency 4, stride prefetcher (8 streams, degree 2)")
	t.AddRow("L3", "2 MB static NUCA, 8 clusters x 256 KB 16-way, latency 10, 64 KB anchoring span")
	t.AddRow("NoC", "4x2 mesh, XY routing, 16 B flits, 2 cycles/hop")
	t.AddRow("Memory", "LPDDR, 64 B lines, 160 host cycles")
	t.AddRow("Accelerators", "IO core @2 GHz or CGRA @1 GHz (5x5 Dist / 8x8 Mono), 1 KB buffers, ACP")
	return t
}

// ablations evaluates the DESIGN.md design-choice ablations on a streaming
// and an irregular workload.
func ablations(scale workloads.Scale) figure {
	ws := []*workloads.Workload{workloads.FDTD2D(scale), workloads.BFS(scale)}
	variants := []struct {
		name string
		cfg  sim.Config
	}{
		{"buffer 16 elems", sim.MustConfig(sim.DistDAIO, sim.WithBufElems(16))},
		{"buffer 1024 elems", sim.MustConfig(sim.DistDAIO, sim.WithBufElems(1024))},
		{"no combining", sim.MustConfig(sim.DistDAIO, sim.WithCombining(false))},
		{"no obj constraint", sim.MustConfig(sim.DistDAIO, sim.WithoutObjConstraint())},
		{"accels at host", sim.MustConfig(sim.DistDAIO, sim.WithPlaceAtHost())},
		{"OoO no prefetcher", sim.MustConfig(sim.OoO, sim.WithHostPrefetch(false))},
	}
	// The Dist-DA-IO and OoO baselines of each workload come first.
	var cells []Cell
	for _, w := range ws {
		cells = append(cells, Cell{W: w, Scale: scale, Cfg: sim.DistDAIO()}, Cell{W: w, Scale: scale, Cfg: sim.OoO()})
	}
	for _, v := range variants {
		for _, w := range ws {
			cells = append(cells, Cell{W: w, Scale: scale, Cfg: v.cfg})
		}
	}
	return figure{cells: cells, render: func(res []*sim.Result) *report.Table {
		t := &report.Table{
			Title:   "Ablations: Dist-DA-IO variants (speedup | energy eff. vs default)",
			Columns: []string{"variant", "fdtd-2d", "bfs"},
		}
		for i, v := range variants {
			row := []string{v.name}
			for j := range ws {
				ref := res[2*j] // Dist-DA-IO
				if !v.cfg.HasAccel() {
					ref = res[2*j+1] // OoO
				}
				row = append(row, speedupEnergy(res[2*len(ws)+i*len(ws)+j], ref))
			}
			t.AddRow(row...)
		}
		return t
	}}
}

// nearVsAlt declares, per workload, a Dist-DA-IO cell and one under alt,
// and renders alt's speedup, energy efficiency and on-chip NoC bytes
// relative to Dist-DA-IO.
func nearVsAlt(scale workloads.Scale, ws []*workloads.Workload, alt sim.Config, title, note string) figure {
	var cells []Cell
	for _, w := range ws {
		cells = append(cells, Cell{W: w, Scale: scale, Cfg: sim.DistDAIO()}, Cell{W: w, Scale: scale, Cfg: alt})
	}
	return figure{cells: cells, render: func(res []*sim.Result) *report.Table {
		t := &report.Table{
			Title:   title,
			Columns: []string{"benchmark", "speedup", "energy eff.", "on-chip NoC bytes"},
		}
		for i, w := range ws {
			near, r := res[2*i], res[2*i+1]
			if near == nil || r == nil {
				t.AddRow(w.Name, report.NA, report.NA, report.NA)
				continue
			}
			nearNoC := float64(near.NoCBytes["data"] + near.NoCBytes["ctrl"])
			altNoC := float64(r.NoCBytes["data"] + r.NoCBytes["ctrl"])
			ratio := 0.0
			if nearNoC > 0 {
				ratio = altNoC / nearNoC
			}
			t.AddRow(w.Name,
				report.F(r.SpeedupVs(near)),
				report.F(r.EnergyEfficiencyVs(near)),
				report.F(ratio))
		}
		t.AddNote(note)
		return t
	}}
}

// offChipExtension evaluates the §VII discussion point ("if the data is
// resident off-chip, off-chip localization of compute may be preferable"):
// partitions anchored at DRAM-resident objects move to the memory
// controller under Dist-DA-OffChip.
func offChipExtension(scale workloads.Scale) figure {
	return nearVsAlt(scale,
		[]*workloads.Workload{workloads.Pathfinder(scale), workloads.FDTD2D(scale)},
		sim.DistDAOffChip(),
		"§VII extension: off-chip placement (Dist-DA-OffChip vs Dist-DA-IO)",
		"objects over 1 MB anchor at the memory controller; smaller ones stay on chip")
}

// pimExtension compares near-L3 offload (Dist-DA-IO) against the
// PIM-in-DRAM backend (Dist-DA-PIM) on the same kernels: bank-level compute
// units at the DRAM channel, channel-bandwidth-bound issue, and no NoC
// traversal for resident data.
func pimExtension(scale workloads.Scale) figure {
	return nearVsAlt(scale,
		[]*workloads.Workload{workloads.Pathfinder(scale), workloads.FDTD2D(scale), workloads.BFS(scale)},
		sim.DistDAPIM(),
		"PIM extension: in-DRAM execution (Dist-DA-PIM vs Dist-DA-IO)",
		"pimdram engines sit at the DRAM channel: issue is bandwidth-bound, resident data skips the NoC")
}
