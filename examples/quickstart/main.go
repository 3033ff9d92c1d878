// Quickstart: define a kernel in the distda IR, compile it for the Dist-DA
// offload model, and run it on the simulated system under the out-of-order
// baseline and the distributed-accelerator configuration.
package main

import (
	"fmt"
	"log"

	"distda/internal/ir"
	"distda/internal/sim"
)

func main() {
	const n = 1 << 14

	// saxpy: Y[i] = a*X[i] + Y[i] — one streaming innermost loop.
	kernel := &ir.Kernel{
		Name:   "saxpy",
		Params: []string{"N", "a"},
		Objects: []ir.ObjDecl{
			{Name: "X", Len: n, ElemBytes: 8},
			{Name: "Y", Len: n, ElemBytes: 8},
		},
		Body: []ir.Stmt{
			ir.Loop("i", ir.C(0), ir.P("N"),
				ir.St("Y", ir.V("i"),
					ir.AddE(ir.MulE(ir.P("a"), ir.Ld("X", ir.V("i"))), ir.Ld("Y", ir.V("i")))),
			),
		},
	}
	params := map[string]float64{"N": n, "a": 3}
	gen := func() map[string][]float64 {
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = float64(i % 100)
			y[i] = float64(i % 7)
		}
		return map[string][]float64{"X": x, "Y": y}
	}

	// The compiler partitions the loop into per-object accelerator
	// definitions; the simulator validates the run against the reference
	// bytecode program's output on the same input automatically.
	var base *sim.Result
	for _, cfg := range []sim.Config{sim.OoO(), sim.DistDAIO(), sim.DistDAF()} {
		res, err := sim.Run(kernel, params, gen(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		if base == nil {
			base = res
		}
		fmt.Printf("%-11s validated=%v cycles=%8d energy=%7.1f nJ  speedup=%.2fx  energy-eff=%.2fx\n",
			cfg.Name, res.Validated, res.Cycles, res.EnergyPJ/1000,
			res.SpeedupVs(base), res.EnergyEfficiencyVs(base))
	}

	// Inspect what the compiler produced.
	compiled, err := sim.Compiled(kernel, sim.DistDAF())
	if err != nil {
		log.Fatal(err)
	}
	for _, info := range compiled.Infos {
		fmt.Printf("\nregion %s: %s, %d accelerator definitions, %d micro-ops\n",
			info.Region.Name, info.Region.Class, len(info.Region.Accels), info.Insts)
		for _, a := range info.Region.Accels {
			fmt.Printf("  accel %d anchored at %q (%d accesses, %d ops)\n",
				a.ID, a.AnchorObj, len(a.Accesses), len(a.Program))
		}
	}
}
