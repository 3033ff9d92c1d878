package ir_test

// Differential test: the bytecode VM against the tree-walk interpreter
// over every workload kernel. The two executors must produce
// byte-identical Counts (including per-loop attribution), stored data,
// and hook event sequences — the VM is a drop-in replacement on the hot
// paths (sim validation, Tab6 reference runs) and any divergence would
// silently change simulated results.

import (
	"bytes"
	"encoding/gob"
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

// vmEvent is one hook callback; captureHooks records every event the
// host timing model consumes: ops, loads with their taint, stores,
// branches, loop iterations and parallel-loop entries and exits.
type vmEvent = ir.HookEvent

func captureHooks(log *[]vmEvent) *ir.Hooks { return ir.RecordingHooks(log) }

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

// TestVMOpcodeCoverage compiles every workload kernel and the fuzz corpus
// and requires that together they emit every defined opcode except
// OpInvalid, so the differential tests run each opcode through both
// dispatch loops. Every program must give the same error, counts and data
// hooked (the hooked loop) as unhooked.
func TestVMOpcodeCoverage(t *testing.T) {
	type input struct {
		name   string
		k      *ir.Kernel
		params map[string]float64
		mem    map[string][]float64
	}
	var ins []input
	for _, w := range allKernelWorkloads(workloads.ScaleTest) {
		ins = append(ins, input{w.Name, w.Kernel, w.Params, w.NewData()})
	}
	for seed := int64(0); seed < ir.FuzzCorpusSeeds; seed++ {
		if k, params, mem, ok := ir.CorpusKernel(seed); ok {
			ins = append(ins, input{k.Name, k, params, mem})
		}
	}
	emitted := map[ir.OpCode]bool{}
	for _, in := range ins {
		p, err := ir.NewProgram(in.k)
		if err != nil {
			t.Fatalf("%s: compile: %v", in.name, err)
		}
		for _, op := range p.Image().Code {
			emitted[op.Code] = true
		}
		// The same kernel as a host program that launches every innermost
		// loop, evaluating the launch's expressions, emits OpLaunch.
		off := map[*ir.For]ir.Offload{}
		for _, f := range ir.InnermostLoops(in.k.Body) {
			off[f] = ir.Offload{Exprs: []ir.Expr{f.Lo, f.Hi}, SkipNext: true}
		}
		hp, err := ir.NewHostProgram(in.k, off)
		if err != nil {
			t.Fatalf("%s: host program: %v", in.name, err)
		}
		for _, op := range hp.Image().Code {
			emitted[op.Code] = true
		}
		hp.Run(in.params, cloneMem(in.mem), &ir.Hooks{OnLaunch: func(_ *ir.For, l ir.Launch) { l.Eval(0); l.Eval(1) }})
		memU, memH := cloneMem(in.mem), cloneMem(in.mem)
		var log []vmEvent
		cU, errU := p.Run(in.params, memU, nil)
		cH, errH := p.Run(in.params, memH, captureHooks(&log))
		if ir.ErrText(errU) != ir.ErrText(errH) {
			t.Fatalf("%s: error unhooked %v, hooked %v", in.name, errU, errH)
		}
		if !reflect.DeepEqual(cU, cH) {
			t.Errorf("%s: counts unhooked %+v, hooked %+v", in.name, cU, cH)
		}
		if !ir.MemBitsEqual(memU, memH) {
			t.Errorf("%s: data diverges between unhooked and hooked runs", in.name)
		}
	}
	for op := ir.OpCode(0); op < ir.NumOpCodes; op++ {
		if emitted[op] != (op != ir.OpInvalid) {
			t.Errorf("opcode %d emitted=%v", op, emitted[op])
		}
	}
}

// TestProgramImageRoundtrip rebinds programs to structurally identical
// kernels (distinct *For nodes) both ways the artifact store does: through
// a gob-encoded image and ProgramFromImage, and through Rebind. Execution
// must match the original program's, with ByLoop compared positionally
// through the loop tables.
func TestProgramImageRoundtrip(t *testing.T) {
	type pair struct {
		name   string
		k1, k2 *ir.Kernel
		params map[string]float64
		mem    map[string][]float64
	}
	params, mem := ir.VMInputs()
	pairs := []pair{{"vmtest", ir.VMKernel(), ir.VMKernel(), params, mem}}
	ws1, ws2 := allKernelWorkloads(workloads.ScaleTest), allKernelWorkloads(workloads.ScaleTest)
	for i, w := range ws1 {
		pairs = append(pairs, pair{w.Name, w.Kernel, ws2[i].Kernel, w.Params, w.NewData()})
	}
	for _, pr := range pairs {
		p, err := ir.NewProgram(pr.k1)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p.Image()); err != nil {
			t.Fatal(err)
		}
		var img ir.Image
		if err := gob.NewDecoder(&buf).Decode(&img); err != nil {
			t.Fatal(err)
		}
		fromImage, err := ir.ProgramFromImage(img, pr.k2)
		if err != nil {
			t.Fatalf("%s: ProgramFromImage: %v", pr.name, err)
		}
		rebound, err := p.Rebind(pr.k2)
		if err != nil {
			t.Fatalf("%s: Rebind: %v", pr.name, err)
		}
		l1, l2 := ir.Loops(pr.k1.Body), ir.Loops(pr.k2.Body)
		if len(l1) > 0 && l1[0] == l2[0] {
			t.Fatalf("%s: the two kernel instances share loop nodes", pr.name)
		}
		mem1 := cloneMem(pr.mem)
		c1, err := p.Run(pr.params, mem1, nil)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		for _, via := range []struct {
			name string
			p    *ir.Program
		}{{"image", fromImage}, {"rebind", rebound}} {
			mem2 := cloneMem(pr.mem)
			c2, err := via.p.Run(pr.params, mem2, nil)
			if err != nil {
				t.Fatalf("%s via %s: %v", pr.name, via.name, err)
			}
			if !ir.MemBitsEqual(mem1, mem2) {
				t.Errorf("%s via %s: data diverges", pr.name, via.name)
			}
			if c1.Ops != c2.Ops || c1.IntOps != c2.IntOps || c1.ComplexOps != c2.ComplexOps ||
				c1.FloatOps != c2.FloatOps || c1.Loads != c2.Loads || c1.Stores != c2.Stores ||
				c1.LoopIters != c2.LoopIters || len(c1.ByLoop) != len(c2.ByLoop) {
				t.Errorf("%s via %s: counts diverge: %+v vs %+v", pr.name, via.name, c1, c2)
			}
			for i := range l1 {
				if !reflect.DeepEqual(c1.ByLoop[l1[i]], c2.ByLoop[l2[i]]) {
					t.Errorf("%s via %s: loop %d counts diverge: %+v vs %+v",
						pr.name, via.name, i, c1.ByLoop[l1[i]], c2.ByLoop[l2[i]])
				}
			}
		}
	}
}

// BenchmarkExecutors compares the two executors on a representative
// kernel (pathfinder's DP wavefront: loads, stores, sels, a nested
// loop). Hooks off — the configuration the hot paths use. The
// Bytecode/<workload> rows time the VM alone on every paper kernel: each
// iteration first copies a pre-drawn input into preallocated buffers with
// the timer stopped.
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
	for _, w := range workloads.All(workloads.ScaleTest) {
		prog, err := ir.NewProgram(w.Kernel)
		if err != nil {
			b.Fatal(err)
		}
		input := w.NewData()
		mem := cloneMem(input)
		b.Run("Bytecode/"+w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for name, buf := range input {
					copy(mem[name], buf)
				}
				b.StartTimer()
				if _, err := prog.Run(w.Params, mem, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
