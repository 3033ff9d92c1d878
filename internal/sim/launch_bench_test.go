package sim

import (
	"runtime"
	"testing"
	"time"

	"distda/internal/compiler"
	"distda/internal/workloads"
)

// BenchmarkLaunchPath times the offload launch path: test-scale cholesky
// and pagerank on Dist-DA-IO and Dist-DA-F, run serially with validation
// off, so short launches dominate. One op runs all four cells; ns/launch
// and allocs/launch divide the measured time and heap allocations by the
// launches the op made, machine assembly included. Copying the inputs is
// outside both measurements.
func BenchmarkLaunchPath(b *testing.B) {
	type cell struct {
		w        *workloads.Workload
		cfg      Config
		compiled *compiler.Compiled
		data     map[string][]float64
	}
	var cells []cell
	for _, w := range []*workloads.Workload{workloads.Cholesky(workloads.ScaleTest), workloads.Pagerank(workloads.ScaleTest)} {
		for _, mk := range []func() Config{DistDAIO, DistDAF} {
			cfg := mk()
			cfg.ValidateEvery = false
			compiled, err := Compiled(w.Kernel, cfg)
			if err != nil {
				b.Fatal(err)
			}
			cells = append(cells, cell{w: w, cfg: cfg, compiled: compiled, data: w.NewData()})
		}
	}
	inputs := make([]map[string][]float64, len(cells))
	var launches, mallocs int64
	var elapsed time.Duration
	var ms runtime.MemStats
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range cells {
			inputs[j] = copyData(c.data)
		}
		runtime.ReadMemStats(&ms)
		m0, t0 := ms.Mallocs, time.Now()
		b.StartTimer()
		for j, c := range cells {
			res, err := RunPrecompiled(c.w.Kernel, c.w.Params, inputs[j], c.cfg, c.compiled)
			if err != nil {
				b.Fatal(err)
			}
			launches += res.Launches
		}
		b.StopTimer()
		elapsed += time.Since(t0)
		runtime.ReadMemStats(&ms)
		mallocs += int64(ms.Mallocs - m0)
	}
	if launches == 0 {
		b.Fatal("no launches: the cells no longer exercise the launch path")
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(launches), "ns/launch")
	b.ReportMetric(float64(mallocs)/float64(launches), "allocs/launch")
}
