package sim

import (
	"fmt"
	"testing"

	"distda/internal/engine"
	"distda/internal/workloads"
)

// TestPIMDRAMRuns executes every workload on the PIM-in-DRAM backend under
// all three engine scheduling modes: results must validate against the
// reference interpreter and be bit-identical across modes — the same
// contract the near-L3 backends honor.
func TestPIMDRAMRuns(t *testing.T) {
	for _, w := range workloads.All(workloads.ScaleTest) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			data := w.NewData()
			var first *Result
			for _, mode := range []engine.Mode{engine.ModeAdaptive, engine.ModeNaive} {
				cfg := DistDAPIM()
				cfg.engineMode = mode
				r, err := Run(w.Kernel, w.Params, copyData(data), cfg)
				if err != nil {
					t.Fatalf("%s (%s): %v", w.Name, mode, err)
				}
				if !r.Validated {
					t.Fatalf("%s (%s): result not validated", w.Name, mode)
				}
				if first == nil {
					first = r
					continue
				}
				if fmt.Sprintf("%+v", r) != fmt.Sprintf("%+v", first) {
					t.Fatalf("%s: %s mode diverges from adaptive", w.Name, mode)
				}
			}
		})
	}
}

// TestPIMThresholdSteersRegions checks per-region backend selection: with a
// low threshold on a near-L3 config, large-footprint regions execute in
// DRAM (the compiler marks them), and the run still validates.
func TestPIMThresholdSteersRegions(t *testing.T) {
	w, err := workloads.ByName("fdtd-2d", workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MustConfig(DistDAIO, WithName("Dist-DA-IO+PIM"), WithPIMThreshold(1))
	compiled, err := Compiled(w.Kernel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, reg := range compiled.Regions {
		if reg.Backend == "pimdram" {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("threshold 1: no region steered to pimdram")
	}
	r, err := Run(w.Kernel, w.Params, w.NewData(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Validated {
		t.Fatal("mixed-backend run not validated")
	}

	// A threshold beyond every footprint must leave all regions on the
	// config backend.
	huge := MustConfig(DistDAIO, WithName("Dist-DA-IO+PIMHuge"), WithPIMThreshold(1<<40))
	compiled, err = Compiled(w.Kernel, huge)
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range compiled.Regions {
		if reg.Backend != "" {
			t.Fatalf("threshold 1<<40: region %s unexpectedly steered to %q", reg.Name, reg.Backend)
		}
	}
}
