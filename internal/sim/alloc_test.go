package sim

import (
	"testing"

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
