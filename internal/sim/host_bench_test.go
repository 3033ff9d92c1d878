package sim

import (
	"testing"

	"distda/internal/ir"
	"distda/internal/workloads"
)

// BenchmarkHostOnly times the host timing model alone: each test-scale
// workload on the OoO baseline, where the host runs the whole kernel, on a
// warm Runner with validation off and the program compiled up front.
// Copying the inputs is outside the measurement.
func BenchmarkHostOnly(b *testing.B) {
	for _, w := range workloads.All(workloads.ScaleTest) {
		prog, err := ir.NewProgram(w.Kernel)
		if err != nil {
			b.Fatal(err)
		}
		cfg := OoO()
		cfg.ValidateEvery = false
		cfg.Program = prog
		data := w.NewData()
		b.Run(w.Name, func(b *testing.B) {
			var r Runner
			if _, err := r.RunPrecompiled(w.Kernel, w.Params, copyData(data), cfg, nil); err != nil {
				b.Fatal(err) // warms the runner's machine
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				input := copyData(data)
				b.StartTimer()
				if _, err := r.RunPrecompiled(w.Kernel, w.Params, input, cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
