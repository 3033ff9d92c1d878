package sim

import (
	"bytes"
	"reflect"
	"testing"

	"distda/internal/profile"
	"distda/internal/workloads"
)

// TestProfilerDifferential runs every workload under every paper
// configuration twice — once with profiling off (nil *profile.Profiler) and
// once with it on — and requires bit-identical results. Profiling is
// observational only: it may read the machine's counters and walk NoC routes
// and DRAM channel maps, but it must never perturb a cycle count, an energy
// figure, or a validation outcome.
func TestProfilerDifferential(t *testing.T) {
	ws := workloads.All(workloads.ScaleTest)
	ws = append(ws, workloads.SpMV(workloads.ScaleTest))
	for _, w := range ws {
		data := w.NewData()
		for _, cfg := range AllPaperConfigs() {
			offCfg := cfg
			offCfg.Profile = nil
			offRes, offErr := Run(w.Kernel, w.Params, copyData(data), offCfg)
			onCfg := cfg
			onCfg.Profile = profile.New()
			onRes, onErr := Run(w.Kernel, w.Params, copyData(data), onCfg)
			if offErr != nil || onErr != nil {
				t.Fatalf("%s on %s: off err=%v on err=%v", w.Name, cfg.Name, offErr, onErr)
			}
			if !reflect.DeepEqual(offRes, onRes) {
				t.Errorf("%s on %s: results diverge with profiling on:\noff: %+v\non:  %+v",
					w.Name, cfg.Name, offRes, onRes)
			}
			// The profiled run must actually have attributed something for
			// accelerated configs — a silently dead profiler would also pass
			// the differential check.
			if cfg.HasAccel() && onRes.Launches > 0 {
				regions := onCfg.Profile.Regions()
				if len(regions) == 0 {
					t.Errorf("%s on %s: profiler captured no regions despite %d launches",
						w.Name, cfg.Name, onRes.Launches)
				}
				var total int64
				for _, r := range regions {
					total += r.Total()
				}
				if total == 0 {
					t.Errorf("%s on %s: profiler attributed zero base cycles", w.Name, cfg.Name)
				}
			}
		}
	}
}

// TestProfilerDeterministicExports pins run-to-run determinism of the
// exports themselves: two identical profiled runs must produce
// byte-identical stats dumps and folded stacks.
func TestProfilerDeterministicExports(t *testing.T) {
	w := workloads.All(workloads.ScaleTest)[0]
	data := w.NewData()
	export := func() (string, string) {
		cfg := DistDAF()
		cfg.Profile = profile.New()
		if _, err := Run(w.Kernel, w.Params, copyData(data), cfg); err != nil {
			t.Fatal(err)
		}
		var stats, folded bytes.Buffer
		if err := cfg.Profile.WriteStats(&stats); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Profile.WriteFolded(&folded); err != nil {
			t.Fatal(err)
		}
		return stats.String(), folded.String()
	}
	s1, f1 := export()
	s2, f2 := export()
	if s1 != s2 {
		t.Errorf("stats dump differs between identical runs:\n--- first ---\n%s--- second ---\n%s", s1, s2)
	}
	if f1 != f2 {
		t.Errorf("folded stacks differ between identical runs:\n--- first ---\n%s--- second ---\n%s", f1, f2)
	}
	if len(f1) == 0 {
		t.Error("folded export empty for an accelerated run")
	}
}
