// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (§VI). Each benchmark regenerates its table from the
// simulator (the full 12-workload × 6-configuration matrix is built once
// and shared), reports the figure's headline numbers as custom metrics, and
// prints the rendered table under -v.
//
// The input scale defaults to the CI-sized "test" datasets; set
// DISTDA_SCALE=bench (or paper) to reproduce at evaluation sizes:
//
//	DISTDA_SCALE=bench go test -bench=Fig -benchtime=1x
package distda_test

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"sync"
	"testing"

	"distda/internal/exp"
	"distda/internal/report"
	"distda/internal/sim"
	"distda/internal/stats"
	"distda/internal/workloads"
)

func benchScale() workloads.Scale {
	switch os.Getenv("DISTDA_SCALE") {
	case "bench":
		return workloads.ScaleBench
	case "paper":
		return workloads.ScalePaper
	default:
		return workloads.ScaleTest
	}
}

var (
	matrixOnce sync.Once
	matrix     *exp.Matrix
	matrixErr  error
)

func sharedMatrix(b *testing.B) *exp.Matrix {
	b.Helper()
	matrixOnce.Do(func() {
		matrix, matrixErr = exp.Build(context.Background(), exp.Options{Scale: benchScale()})
	})
	if matrixErr != nil {
		b.Fatal(matrixErr)
	}
	return matrix
}

// BenchmarkReproMatrixSerial / BenchmarkReproMatrixParallel time one full
// workload × configuration matrix build end to end — the dominant cost of a
// distda-repro run. Serial pins the worker pool to one goroutine; Parallel
// uses one worker per available CPU (what distda-repro does by default).
// Both paths produce bit-identical matrices (see internal/exp tests), so
// ns/op is directly comparable. Run with -benchtime=1x for a single timed
// build:
//
//	go test -bench='ReproMatrix' -benchtime=1x
func benchReproMatrix(b *testing.B, workers int) {
	b.Helper()
	scale := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Build(context.Background(), exp.Options{Scale: scale, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReproMatrixSerial(b *testing.B) { benchReproMatrix(b, 1) }

func BenchmarkReproMatrixParallel(b *testing.B) {
	benchReproMatrix(b, runtime.GOMAXPROCS(0))
}

// runOne simulates a representative workload under a configuration once per
// benchmark iteration so ns/op reflects real simulation work.
func runOne(b *testing.B, w *workloads.Workload, cfg sim.Config) *sim.Result {
	b.Helper()
	res, err := sim.Run(w.Kernel, w.Params, w.NewData(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// gmVs extracts the geomean of a per-workload metric of cfg against base.
func gmVs(m *exp.Matrix, base, cfg string, f func(base, r *sim.Result) float64) float64 {
	var vals []float64
	for _, w := range m.Workloads {
		vals = append(vals, f(m.Res[w.Name][base], m.Res[w.Name][cfg]))
	}
	return stats.Geomean(vals)
}

// logSection runs and renders a simulated section through exp's cell
// runner, logging it under -v.
func logSection(b *testing.B, sel exp.Selection) {
	b.Helper()
	var buf bytes.Buffer
	if err := exp.RenderSelection(&buf, benchScale(), sel, nil); err != nil {
		b.Fatal(err)
	}
	if testing.Verbose() {
		b.Log("\n" + buf.String())
	}
}

func logTable(b *testing.B, t *report.Table) {
	b.Helper()
	if testing.Verbose() {
		b.Log("\n" + t.Render())
	}
}

func BenchmarkFig07EnergyEfficiency(b *testing.B) {
	m := sharedMatrix(b)
	logTable(b, m.Fig7EnergyEfficiency())
	w := workloads.FDTD2D(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, sim.DistDAF())
	}
	b.ReportMetric(gmVs(m, "OoO", "Dist-DA-F",
		func(base, r *sim.Result) float64 { return r.EnergyEfficiencyVs(base) }), "xEnergyEffVsOoO")
}

func BenchmarkFig08CacheAccesses(b *testing.B) {
	m := sharedMatrix(b)
	logTable(b, m.Fig8CacheAccesses())
	b.ReportMetric(gmVs(m, "OoO", "Dist-DA-F", func(base, r *sim.Result) float64 {
		return stats.Ratio(float64(base.CacheL1+base.CacheL2+base.CacheL3),
			float64(r.CacheL1+r.CacheL2+r.CacheL3))
	}), "xFewerCacheAccesses")
	w := workloads.Tracking(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, sim.DistDAF())
	}
}

func BenchmarkFig09AccessDistribution(b *testing.B) {
	m := sharedMatrix(b)
	logTable(b, m.Fig9AccessDistribution())
	r := m.Res["seidel-2d"]["Dist-DA-F"]
	total := float64(r.IntraBytes + r.DABytes + r.AABytes)
	w := workloads.Seidel2D(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, sim.DistDAF())
	}
	b.ReportMetric(100*float64(r.IntraBytes)/total, "pctIntraSeidel")
}

func BenchmarkFig10NoCTraffic(b *testing.B) {
	m := sharedMatrix(b)
	logTable(b, m.Fig10NoCTraffic())
	// Inter-accelerator traffic reduction, Mono-DA vs Dist-DA.
	var mono, dist int64
	for _, w := range m.Workloads {
		rm := m.Res[w.Name]["Mono-DA-IO"]
		rd := m.Res[w.Name]["Dist-DA-F"]
		mono += rm.NoCBytes["acc_ctrl"] + rm.NoCBytes["acc_data"]
		dist += rd.NoCBytes["acc_ctrl"] + rd.NoCBytes["acc_data"]
	}
	w := workloads.Disparity(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, sim.MonoDAIO())
	}
	ratio := 1.0
	if dist > 0 && mono > 0 {
		ratio = float64(mono) / float64(dist)
	}
	b.ReportMetric(ratio, "xLessAccTrafficVsMono")
}

func BenchmarkFig11aIPC(b *testing.B) {
	m := sharedMatrix(b)
	logTable(b, m.Fig11aIPC())
	w := workloads.ADI(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, sim.DistDAIO())
	}
	b.ReportMetric(gmVs(m, "OoO", "Dist-DA-F",
		func(base, r *sim.Result) float64 { return stats.Ratio(r.IPC(), base.IPC()) }), "xIPCVsOoO")
}

func BenchmarkFig11bSpeedup(b *testing.B) {
	m := sharedMatrix(b)
	logTable(b, m.Fig11bSpeedup())
	w := workloads.Disparity(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, sim.DistDAF())
	}
	b.ReportMetric(gmVs(m, "OoO", "Dist-DA-F",
		func(base, r *sim.Result) float64 { return r.SpeedupVs(base) }), "xSpeedupVsOoO")
	b.ReportMetric(gmVs(m, "Mono-DA-IO", "Dist-DA-F",
		func(base, r *sim.Result) float64 { return r.SpeedupVs(base) }), "xSpeedupVsMonoDA")
}

func BenchmarkFig12aCaseStudies(b *testing.B) {
	logSection(b, exp.Selection{Figs: []string{"12a"}})
	w := workloads.SpMV(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunAnnotated(w.Kernel, w.Params, w.NewData(), sim.DistDAIO(), exp.AnnotateSpMVBNS(w)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12bMultithread(b *testing.B) {
	logSection(b, exp.Selection{Figs: []string{"12b"}})
	w := workloads.BFSMT(benchScale())
	cfg := sim.DistDAIO()
	cfg.NoStreams = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunThreads(w.Kernel, w.Params, w.NewData(), cfg, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Clocking(b *testing.B) {
	logSection(b, exp.Selection{Figs: []string{"13"}})
	w := workloads.Seidel2D(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, sim.DistDAIO().WithClock(3))
	}
}

func BenchmarkFig14SoftwareOpt(b *testing.B) {
	logSection(b, exp.Selection{Figs: []string{"14"}})
	w := workloads.PCA(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, sim.DistDAIOSW())
	}
}

func BenchmarkTab05MechanismCoverage(b *testing.B) {
	m := sharedMatrix(b)
	logTable(b, m.Tab5MechanismCoverage())
	w := workloads.Pagerank(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, sim.DistDAIO())
	}
}

func BenchmarkTab06OffloadCharacteristics(b *testing.B) {
	m := sharedMatrix(b)
	t, err := m.Tab6OffloadCharacteristics()
	if err != nil {
		b.Fatal(err)
	}
	logTable(b, t)
	w := workloads.Cholesky(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, sim.DistDAIO())
	}
}

func BenchmarkTab03AreaModel(b *testing.B) {
	logTable(b, exp.Tab3Area())
	w := workloads.NW(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, sim.DistDAF())
	}
}

func BenchmarkSensWorkingSet(b *testing.B) {
	logSection(b, exp.Selection{Sens: true})
	w := workloads.FDTD2D(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, sim.MonoDAIO())
	}
}

func BenchmarkHeadline(b *testing.B) {
	m := sharedMatrix(b)
	logTable(b, m.Headline())
	logTable(b, m.DataMovement())
	w := workloads.PointerChase(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, sim.DistDAF())
	}
	b.ReportMetric(gmVs(m, "OoO", "Dist-DA-F",
		func(base, r *sim.Result) float64 { return r.EnergyEfficiencyVs(base) }), "xEnergyEff")
	b.ReportMetric(gmVs(m, "OoO", "Dist-DA-F",
		func(base, r *sim.Result) float64 { return r.SpeedupVs(base) }), "xSpeedup")
	b.ReportMetric(gmVs(m, "OoO", "Dist-DA-F",
		func(base, r *sim.Result) float64 { return r.DataMovementReductionVs(base) }), "xDataMovement")
}

// Ablation benches (DESIGN.md §5).

func ablBench(b *testing.B, mod func(*sim.Config)) {
	w := workloads.FDTD2D(benchScale())
	cfg := sim.DistDAIO()
	mod(&cfg)
	base := runOne(b, w, sim.DistDAIO())
	variant := runOne(b, w, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, cfg)
	}
	b.ReportMetric(variant.SpeedupVs(base), "xSpeedupVsDefault")
	b.ReportMetric(variant.EnergyEfficiencyVs(base), "xEnergyEffVsDefault")
}

func BenchmarkAblBufferSizeSmall(b *testing.B) {
	ablBench(b, func(c *sim.Config) { c.BufElems = 16 })
}

func BenchmarkAblBufferSizeLarge(b *testing.B) {
	ablBench(b, func(c *sim.Config) { c.BufElems = 1024 })
}

func BenchmarkAblCombining(b *testing.B) {
	ablBench(b, func(c *sim.Config) { c.Combining = false })
}

func BenchmarkAblObjConstraint(b *testing.B) {
	ablBench(b, func(c *sim.Config) { c.NoObjConstr = true })
}

func BenchmarkAblPlacement(b *testing.B) {
	ablBench(b, func(c *sim.Config) { c.PlaceAtHost = true })
}

func BenchmarkAblPrefetcher(b *testing.B) {
	// Host prefetcher off affects the OoO baseline: measure OoO itself.
	w := workloads.FDTD2D(benchScale())
	cfg := sim.OoO()
	cfg.HostPrefetch = false
	base := runOne(b, w, sim.OoO())
	variant := runOne(b, w, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, cfg)
	}
	b.ReportMetric(variant.SpeedupVs(base), "xSpeedupVsDefault")
}

func BenchmarkExtOffChip(b *testing.B) {
	logSection(b, exp.Selection{OffChip: true})
	w := workloads.Pathfinder(benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, sim.DistDAOffChip())
	}
}

// BenchmarkPIMWorkload is the headline entry for the PIM-in-DRAM backend:
// one streaming workload simulated end to end on bank-level compute at the
// memory controller, with the near-L3-vs-in-DRAM comparison table rendered
// under -v. Gated by scripts/bench_check.sh in CI.
func BenchmarkPIMWorkload(b *testing.B) {
	logSection(b, exp.Selection{PIM: true})
	w := workloads.Pathfinder(benchScale())
	cfg := sim.DistDAPIM()
	near := runOne(b, w, sim.DistDAIO())
	pim := runOne(b, w, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(b, w, cfg)
	}
	b.ReportMetric(pim.SpeedupVs(near), "xSpeedupVsNearL3")
}
