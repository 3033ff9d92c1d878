package sim

import (
	"runtime"
	"testing"

	"distda/internal/compiler"
	"distda/internal/workloads"
)

// launchAllocCeiling bounds the allocations of one cholesky run on
// Dist-DA-F at test scale, machine assembly included, per offload launch.
// With launch assembly rebuilt from scratch and per-element queue churn a
// run cost ~126 allocations per launch; reusing the assembly within the
// run brought it to ~11, recycling the links, stream FSMs and random
// ports to ~3.7, and recycling the backend engines to 0.7. A steady-state
// launch allocates nothing: what remains is the machine's own assembly
// and each definition's first launch, spread over the run's 276 launches.
const launchAllocCeiling = 1

// TestLaunchAllocBudget pins the allocation cost of the launch path on a
// launch-heavy kernel (276 short launches), so that an allocation
// regression — a per-element allocation in a component Step, or launch
// state rebuilt per launch — fails go test and not only the benchmark.
func TestLaunchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	w := workloads.Cholesky(workloads.ScaleTest)
	cfg := DistDAF()
	cfg.ValidateEvery = false // the reference run's copies are not the launch path
	compiled, err := Compiled(w.Kernel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3
	data := w.NewData()
	inputs := make([]map[string][]float64, runs+1) // AllocsPerRun adds a warm-up call
	for i := range inputs {
		inputs[i] = copyData(data)
	}
	next := 0
	var launches int64
	allocs := testing.AllocsPerRun(runs, func() {
		res, err := RunPrecompiled(w.Kernel, w.Params, inputs[next], cfg, compiled)
		if err != nil {
			t.Fatal(err)
		}
		next++
		launches = res.Launches
	})
	if launches < 100 {
		t.Fatalf("only %d launches: the kernel no longer exercises the launch path", launches)
	}
	per := allocs / float64(launches)
	t.Logf("%.0f allocations per run, %d launches: %.1f per launch", allocs, launches, per)
	if per > launchAllocCeiling {
		t.Fatalf("%.1f allocations per launch exceeds the ceiling of %d", per, launchAllocCeiling)
	}
}

// warmRunAllocCeiling bounds the bytes one test-scale run allocates on a
// warm Runner, averaged over the 12 × 6 paper matrix with validation off.
// A machine built per run allocates ~0.87 MB before the run begins (the
// L1/L2 and eight L3 cluster line arrays, ~35k lines, plus the launch
// pools); a warm runner resets that storage instead, and a run measured
// 3.6 KB (the host's per-run maps, the backends' per-definition
// derivations, Mono-CA's private cache). The ceiling leaves 4x headroom;
// rebuilding any one L3 cluster per run would exceed it.
const warmRunAllocCeiling = 16 << 10

// TestWarmRunnerAllocBudget pins what reusing one machine across runs
// saves: a Runner whose reset rebuilt a part (or a pool) instead of
// recycling it fails go test here.
func TestWarmRunnerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	type cell struct {
		w        *workloads.Workload
		cfg      Config
		compiled *compiler.Compiled
		data     [2]map[string][]float64 // warm-up and measured pass
	}
	var cells []cell
	for _, w := range workloads.All(workloads.ScaleTest) {
		data := w.NewData()
		for _, cfg := range AllPaperConfigs() {
			cfg.ValidateEvery = false // the reference run's copies scale with the inputs, not the machine
			c := cell{w: w, cfg: cfg, data: [2]map[string][]float64{copyData(data), copyData(data)}}
			if cfg.HasAccel() {
				var err error
				if c.compiled, err = Compiled(w.Kernel, cfg); err != nil {
					t.Fatal(err)
				}
			}
			cells = append(cells, c)
		}
	}
	var r Runner
	pass := func(i int) {
		for _, c := range cells {
			if _, err := r.RunPrecompiled(c.w.Kernel, c.w.Params, c.data[i], c.cfg, c.compiled); err != nil {
				t.Fatalf("%s on %s: %v", c.w.Name, c.cfg.Name, err)
			}
		}
	}
	pass(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass(1)
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(cells))
	t.Logf("%d bytes, %d allocations per warm run over %d runs", per, (after.Mallocs-before.Mallocs)/uint64(len(cells)), len(cells))
	if per > warmRunAllocCeiling {
		t.Fatalf("%d bytes per warm run exceeds the ceiling of %d", per, warmRunAllocCeiling)
	}
}
