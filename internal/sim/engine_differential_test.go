package sim

import (
	"reflect"
	"testing"

	"distda/internal/engine"
	"distda/internal/workloads"
)

// TestEngineSchedulerDifferential runs every workload under every paper
// configuration once per engine scheduling mode — the reference
// one-tick-at-a-time loop and the default wake-driven loop — and requires
// bit-identical results. The wake-driven scheduler is an optimization
// only: every counter, every energy figure and every cycle count must
// match the naive loop exactly.
func TestEngineSchedulerDifferential(t *testing.T) {
	ws := workloads.All(workloads.ScaleTest)
	ws = append(ws, workloads.SpMV(workloads.ScaleTest))
	for _, w := range ws {
		// Generate the input once per workload so every scheduler sees
		// identical data (workload generators share a seeded rng, so
		// generation order is observable).
		data := w.NewData()
		for _, cfg := range AllPaperConfigs() {
			naiveCfg := cfg
			naiveCfg.EngineMode = engine.ModeNaive
			nRes, nErr := Run(w.Kernel, w.Params, copyData(data), naiveCfg)
			if nErr != nil {
				t.Fatalf("%s on %s: naive err=%v", w.Name, cfg.Name, nErr)
			}
			for _, mode := range []engine.Mode{engine.ModeAdaptive} {
				fastCfg := cfg
				fastCfg.EngineMode = mode
				fRes, fErr := Run(w.Kernel, w.Params, copyData(data), fastCfg)
				if fErr != nil {
					t.Fatalf("%s on %s (%s): err=%v", w.Name, cfg.Name, mode, fErr)
				}
				// Config echoes the scheduler choice nowhere, so the full
				// result structs must agree field for field.
				if !reflect.DeepEqual(nRes, fRes) {
					t.Errorf("%s on %s: results diverge between naive and %s:\nnaive: %+v\n%s: %+v",
						w.Name, cfg.Name, mode, nRes, mode, fRes)
				}
			}
		}
	}
}

// TestEngineSchedulerDifferentialExtensions runs the scheduler sweep on the
// configurations beyond the paper set that TestEngineSchedulerDifferential
// leaves out: allocation-spread placement (many clusters, many channel
// links per launch) and the PIM-in-DRAM backend whose engines sit at the
// memory controller.
func TestEngineSchedulerDifferentialExtensions(t *testing.T) {
	ws := workloads.All(workloads.ScaleTest)
	ws = append(ws, workloads.SpMV(workloads.ScaleTest))
	for _, w := range ws {
		data := w.NewData()
		for _, cfg := range []Config{DistDAFA(), DistDAPIM()} {
			naiveCfg := cfg
			naiveCfg.EngineMode = engine.ModeNaive
			nRes, nErr := Run(w.Kernel, w.Params, copyData(data), naiveCfg)
			if nErr != nil {
				t.Fatalf("%s on %s: naive err=%v", w.Name, cfg.Name, nErr)
			}
			for _, mode := range []engine.Mode{engine.ModeAdaptive} {
				fastCfg := cfg
				fastCfg.EngineMode = mode
				fRes, fErr := Run(w.Kernel, w.Params, copyData(data), fastCfg)
				if fErr != nil {
					t.Fatalf("%s on %s (%s): err=%v", w.Name, cfg.Name, mode, fErr)
				}
				if !reflect.DeepEqual(nRes, fRes) {
					t.Errorf("%s on %s: results diverge between naive and %s:\nnaive: %+v\n%s: %+v",
						w.Name, cfg.Name, mode, nRes, mode, fRes)
				}
			}
		}
	}
}

// TestEngineSchedulerDifferentialThreads covers the multithreaded
// strip-mining path, where several accelerator launches interleave.
func TestEngineSchedulerDifferentialThreads(t *testing.T) {
	for _, w := range []*workloads.Workload{
		workloads.BFSMT(workloads.ScaleTest),
		workloads.PathfinderMT(workloads.ScaleTest),
	} {
		data := w.NewData()
		cfg := DistDAIO()
		cfg.NoStreams = true
		for _, threads := range []int{1, 4} {
			naiveCfg := cfg
			naiveCfg.EngineMode = engine.ModeNaive
			nRes, nErr := RunThreads(w.Kernel, w.Params, copyData(data), naiveCfg, threads)
			if nErr != nil {
				t.Fatalf("%s x%d: naive err=%v", w.Name, threads, nErr)
			}
			for _, mode := range []engine.Mode{engine.ModeAdaptive} {
				fastCfg := cfg
				fastCfg.EngineMode = mode
				fRes, fErr := RunThreads(w.Kernel, w.Params, copyData(data), fastCfg, threads)
				if fErr != nil {
					t.Fatalf("%s x%d (%s): err=%v", w.Name, threads, mode, fErr)
				}
				if !reflect.DeepEqual(nRes, fRes) {
					t.Errorf("%s x%d: results diverge between naive and %s:\nnaive: %+v\n%s: %+v",
						w.Name, threads, mode, nRes, mode, fRes)
				}
			}
		}
	}
}
