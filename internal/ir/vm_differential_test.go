package ir_test

// Differential test: the bytecode VM against the tree-walk interpreter
// over every workload kernel. The two executors must produce
// byte-identical Counts (including per-loop attribution), stored data,
// and hook event sequences — the VM is a drop-in replacement on the hot
// paths (sim validation, Tab6 reference runs) and any divergence would
// silently change simulated results.

import (
	"reflect"
	"testing"

	"distda/internal/ir"
	"distda/internal/workloads"
)

func allKernelWorkloads(s workloads.Scale) []*workloads.Workload {
	ws := workloads.All(s)
	ws = append(ws, workloads.SpMV(s), workloads.BFSMT(s), workloads.PathfinderMT(s))
	return ws
}

func cloneMem(m map[string][]float64) map[string][]float64 {
	out := make(map[string][]float64, len(m))
	for k, v := range m {
		c := make([]float64, len(v))
		copy(c, v)
		out[k] = c
	}
	return out
}

type vmEvent struct {
	kind  string
	class ir.OpClass
	obj   string
	idx   int
	loop  *ir.For
}

func captureHooks(log *[]vmEvent) *ir.Hooks {
	return &ir.Hooks{
		OnOp:       func(class ir.OpClass) { *log = append(*log, vmEvent{kind: "op", class: class}) },
		OnLoad:     func(obj string, idx int) { *log = append(*log, vmEvent{kind: "load", obj: obj, idx: idx}) },
		OnStore:    func(obj string, idx int) { *log = append(*log, vmEvent{kind: "store", obj: obj, idx: idx}) },
		OnLoopIter: func(f *ir.For) { *log = append(*log, vmEvent{kind: "iter", loop: f}) },
	}
}

// TestVMDifferentialAllWorkloads runs every workload kernel through both
// executors, hooks off, and compares counts and data exactly.
func TestVMDifferentialAllWorkloads(t *testing.T) {
	for _, w := range allKernelWorkloads(workloads.ScaleTest) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			data := w.NewData()
			memI, memV := cloneMem(data), cloneMem(data)

			want, errI := ir.Run(w.Kernel, w.Params, memI, nil)
			prog, err := ir.NewProgram(w.Kernel)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			got, errV := prog.Run(w.Params, memV, nil)
			if (errI == nil) != (errV == nil) || (errI != nil && errI.Error() != errV.Error()) {
				t.Fatalf("error parity: interp=%v vm=%v", errI, errV)
			}
			if errI != nil {
				return
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("counts diverge:\ninterp: %+v\nvm:     %+v", want, got)
				for f, lc := range want.ByLoop {
					if !reflect.DeepEqual(lc, got.ByLoop[f]) {
						t.Errorf("  loop %s: interp %+v vm %+v", f.IV, lc, got.ByLoop[f])
					}
				}
			}
			for name := range memI {
				if !reflect.DeepEqual(memI[name], memV[name]) {
					t.Errorf("object %q diverges", name)
				}
			}
		})
	}
}

// TestVMDifferentialHooked repeats the comparison with hooks installed
// and additionally requires identical event sequences. This is the mode
// the access-pattern coverage analysis runs in.
func TestVMDifferentialHooked(t *testing.T) {
	for _, w := range allKernelWorkloads(workloads.ScaleTest) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			data := w.NewData()
			memI, memV := cloneMem(data), cloneMem(data)

			var logI, logV []vmEvent
			want, errI := ir.Run(w.Kernel, w.Params, memI, captureHooks(&logI))
			prog, err := ir.NewProgram(w.Kernel)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			got, errV := prog.Run(w.Params, memV, captureHooks(&logV))
			if (errI == nil) != (errV == nil) || (errI != nil && errI.Error() != errV.Error()) {
				t.Fatalf("error parity: interp=%v vm=%v", errI, errV)
			}
			if errI != nil {
				return
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("counts diverge with hooks on")
			}
			if len(logI) != len(logV) {
				t.Fatalf("event counts diverge: interp %d, vm %d", len(logI), len(logV))
			}
			for i := range logI {
				if logI[i] != logV[i] {
					t.Fatalf("event %d diverges: interp %+v, vm %+v", i, logI[i], logV[i])
				}
			}
			for name := range memI {
				if !reflect.DeepEqual(memI[name], memV[name]) {
					t.Errorf("object %q diverges", name)
				}
			}
		})
	}
}

// BenchmarkExecutors compares the two executors on a representative
// kernel (pathfinder's DP wavefront: loads, stores, sels, a nested
// loop). Hooks off — the configuration the hot paths use.
func BenchmarkExecutors(b *testing.B) {
	w := workloads.Pathfinder(workloads.ScaleTest)
	prog, err := ir.NewProgram(w.Kernel)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("TreeWalk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ir.Run(w.Kernel, w.Params, w.NewData(), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Bytecode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prog.Run(w.Params, w.NewData(), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
