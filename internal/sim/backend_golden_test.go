package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"distda/internal/engine"
	"distda/internal/workloads"
)

var updateBackendGolden = flag.Bool("update-backend-golden", false,
	"rewrite the pre-refactor backend golden files")

// goldenConfigs are the configurations pinned by the backend refactor
// goldens: the six paper configs plus the §VII off-chip extension.
func goldenConfigs() []Config {
	return append(AllPaperConfigs(), DistDAOffChip())
}

// TestBackendGolden pins iocore/CGRA simulation results byte-identical to
// the goldens captured before the pluggable-backend refactor. For every
// workload × configuration the run executes under all three engine
// scheduling modes; the three results must agree with each other and with
// the committed golden JSON. Any behavioral drift introduced by routing
// launches through internal/backend shows up here as a byte diff.
func TestBackendGolden(t *testing.T) {
	dir := filepath.Join("testdata", "backend_golden")
	if *updateBackendGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workloads.All(workloads.ScaleTest) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			// One generation per workload: every config and mode must see
			// identical input data. workloads.All hands out freshly seeded
			// generators, so the first draw is deterministic.
			data := w.NewData()
			got := map[string]*Result{}
			for _, cfg := range goldenConfigs() {
				var first *Result
				for _, mode := range []engine.Mode{engine.ModeAdaptive, engine.ModeNaive} {
					c := cfg
					c.EngineMode = mode
					r, err := Run(w.Kernel, w.Params, copyData(data), c)
					if err != nil {
						t.Fatalf("%s on %s (%s): %v", w.Name, cfg.Name, mode, err)
					}
					if first == nil {
						first = r
						continue
					}
					if fmt.Sprintf("%+v", r) != fmt.Sprintf("%+v", first) {
						t.Fatalf("%s on %s: %s mode diverges from adaptive", w.Name, cfg.Name, mode)
					}
				}
				got[cfg.Name] = first
			}
			raw, err := json.MarshalIndent(got, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, '\n')
			path := filepath.Join(dir, w.Name+".json")
			if *updateBackendGolden {
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-backend-golden): %v", err)
			}
			if string(raw) != string(want) {
				t.Errorf("%s: results differ from pre-refactor golden %s\n(regenerate only if the behavioral change is intended: go test ./internal/sim -run TestBackendGolden -update-backend-golden)", w.Name, path)
			}
		})
	}
}
