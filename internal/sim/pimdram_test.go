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
