package workloads

import (
	"testing"

	"distda/internal/compiler"
	"distda/internal/core"
	"distda/internal/ir"
)

func TestAllKernelsValidate(t *testing.T) {
	for _, w := range All(ScaleTest) {
		if err := ir.Validate(w.Kernel); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.Desc == "" {
			t.Errorf("%s: empty description", w.Name)
		}
	}
}

// runKernel runs k on the bytecode VM, the executor every simulation uses.
func runKernel(k *ir.Kernel, params map[string]float64, mem map[string][]float64) (*ir.Counts, error) {
	p, err := ir.NewProgram(k)
	if err != nil {
		return nil, err
	}
	return p.Run(params, mem, nil)
}

func TestAllKernelsInterpret(t *testing.T) {
	for _, w := range All(ScaleTest) {
		counts, err := runKernel(w.Kernel, w.Params, w.NewData())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if counts.Loads == 0 || counts.Instructions() == 0 {
			t.Errorf("%s: trivial execution (%d loads, %d instrs)", w.Name, counts.Loads, counts.Instructions())
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, mk := range []func(Scale) *Workload{Disparity, BFS, Pagerank, SpMV} {
		a := mk(ScaleTest)
		b := mk(ScaleTest)
		da, db := a.NewData(), b.NewData()
		for name := range da {
			for i := range da[name] {
				if da[name][i] != db[name][i] {
					t.Fatalf("%s: generator not deterministic at %s[%d]", a.Name, name, i)
				}
			}
		}
	}
}

func TestAllKernelsOffloadable(t *testing.T) {
	// Every paper workload must have at least one offloaded region under
	// Dist-DA compilation (the paper offloads all twelve).
	for _, w := range All(ScaleTest) {
		c, err := compiler.Compile(w.Kernel, compiler.Options{Mode: compiler.ModeDist})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		offloaded := 0
		for i, info := range c.Infos {
			if info.Offloaded() {
				offloaded++
			} else {
				t.Logf("%s region %d not offloaded: %s", w.Name, i, info.Why)
			}
		}
		if offloaded == 0 {
			t.Errorf("%s: no offloaded regions", w.Name)
		}
	}
}

func TestExpectedClasses(t *testing.T) {
	// Irregular-write workloads classify pipelinable; pure stream kernels
	// parallelizable (§V-A-2).
	classOf := func(w *Workload) core.RegionClass {
		c, err := compiler.Compile(w.Kernel, compiler.Options{Mode: compiler.ModeDist})
		if err != nil {
			t.Fatal(err)
		}
		worst := core.ClassParallelizable
		for _, r := range c.Regions {
			if r.Class == core.ClassPipelinable {
				worst = core.ClassPipelinable
			}
		}
		return worst
	}
	if got := classOf(Tracking(ScaleTest)); got != core.ClassParallelizable {
		t.Errorf("tracking class = %v", got)
	}
	if got := classOf(BFS(ScaleTest)); got != core.ClassPipelinable {
		t.Errorf("bfs class = %v", got)
	}
}

func TestByName(t *testing.T) {
	for _, b := range Builtins() {
		w, err := ByName(b.Name, ScaleTest)
		if err != nil || w.Name != b.Name {
			t.Fatalf("ByName(%q) = %v, %v", b.Name, w, err)
		}
	}
	if _, err := ByName("nope", ScaleTest); err == nil {
		t.Fatal("unknown name accepted")
	}
	if n := len(All(ScaleTest)); n != 12 {
		t.Fatalf("All returned %d workloads, want 12", n)
	}
}

func TestMTVariantsHaveParallelLoops(t *testing.T) {
	for _, w := range []*Workload{BFSMT(ScaleTest), PathfinderMT(ScaleTest)} {
		if err := ir.Validate(w.Kernel); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		par := false
		for _, f := range ir.Loops(w.Kernel.Body) {
			if f.Parallel {
				par = true
			}
		}
		if !par {
			t.Errorf("%s: no parallel loop", w.Name)
		}
		if _, err := runKernel(w.Kernel, w.Params, w.NewData()); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
}

func TestCholeskyFactorizes(t *testing.T) {
	w := Cholesky(ScaleTest)
	data := w.NewData()
	orig := append([]float64{}, data["A"]...)
	if _, err := runKernel(w.Kernel, w.Params, data); err != nil {
		t.Fatal(err)
	}
	// Check L·Lᵀ ≈ original on a few entries.
	n := int(w.Params["N"])
	l := data["A"]
	for _, pair := range [][2]int{{0, 0}, {3, 2}, {n - 1, n - 1}, {n - 1, 0}} {
		i, j := pair[0], pair[1]
		var v float64
		for t := 0; t <= j; t++ {
			v += l[i*n+t] * l[j*n+t]
		}
		want := orig[i*n+j]
		if diff := v - want; diff > 1e-6*want || diff < -1e-6*want {
			t.Fatalf("L·Lᵀ[%d,%d] = %g, want %g", i, j, v, want)
		}
	}
}

func TestBFSReachesAllLevels(t *testing.T) {
	w := BFS(ScaleTest)
	data := w.NewData()
	if _, err := runKernel(w.Kernel, w.Params, data); err != nil {
		t.Fatal(err)
	}
	visited := 0
	for _, l := range data["level"] {
		if l >= 0 {
			visited++
		}
	}
	if visited < len(data["level"])/2 {
		t.Fatalf("only %d/%d nodes visited", visited, len(data["level"]))
	}
}

func TestPointerChaseIsPermutation(t *testing.T) {
	w := PointerChase(ScaleTest)
	data := w.NewData()
	n := len(data["next"])
	seen := make([]bool, n)
	for _, v := range data["next"] {
		i := int(v)
		if i < 0 || i >= n || seen[i] {
			t.Fatal("next is not a permutation")
		}
		seen[i] = true
	}
}
