// Spmv-annotated reproduces the §VI-D control-intensive case study: sparse
// matrix-vector multiplication whose short inner loops do not amortize the
// naive per-row offload. A user-annotated schedule offloads the whole loop
// nest, with one accelerator producing the inner-loop bounds over a channel
// (Fig. 5a) and a second pipelining across row boundaries with predicated
// produce/consume — Table V's "U"-marked mechanisms.
package main

import (
	"fmt"
	"log"

	"distda/internal/exp"
	"distda/internal/sim"
	"distda/internal/workloads"
)

func main() {
	w := workloads.SpMV(workloads.ScaleBench)
	fmt.Printf("spmv: %s\n\n", w.Desc)

	base, err := sim.Run(w.Kernel, w.Params, w.NewData(), sim.OoO())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %10d cycles (baseline)\n", "OoO", base.Cycles)

	// Dist-DA-B: the compiler's naive blocked offload, one synchronous
	// launch per row.
	cfgB := sim.DistDAIO()
	cfgB.NoFolding = true
	b, err := sim.Run(w.Kernel, w.Params, w.NewData(), cfgB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %10d cycles (%.2fx)\n", "Dist-DA-B (automated)", b.Cycles, b.SpeedupVs(base))

	// Dist-DA-BN: user-identified whole-nest offload with the loop control
	// localized on the accelerator (bounds fetched with cp_read).
	bn, err := sim.RunAnnotated(w.Kernel, w.Params, w.NewData(), sim.DistDAIO(), exp.AnnotateSpMVNest(false))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %10d cycles (%.2fx)\n", "Dist-DA-BN (localized ctrl)", bn.Cycles, bn.SpeedupVs(base))

	// Dist-DA-BNS: the hand-annotated whole-nest schedule.
	bns, err := sim.RunAnnotated(w.Kernel, w.Params, w.NewData(), sim.DistDAIO(), exp.AnnotateSpMVNest(true))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %10d cycles (%.2fx)\n", "Dist-DA-BNS (produced bounds)", bns.Cycles, bns.SpeedupVs(base))
	fmt.Printf("\nBNS launches: %d (vs %d per-row launches for B)\n", bns.Launches, b.Launches)
	fmt.Printf("paper's spmv ordering: B 0.44x < BN 1.22x < BNS 1.95x\n")
}
