package artifact

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"distda/internal/compiler"
	"distda/internal/ir"
	"distda/internal/workloads"
)

// runFresh runs k on a program compiled for this call, the reference a
// cached, rebound or disk-loaded program must match.
func runFresh(k *ir.Kernel, params map[string]float64, mem map[string][]float64) (*ir.Counts, error) {
	p, err := ir.NewProgram(k)
	if err != nil {
		return nil, err
	}
	return p.Run(params, mem, nil)
}

func TestProgramKeyDeterministicAndSensitive(t *testing.T) {
	k, _ := testKernel(t)
	a := ProgramKey("fdtd-2d", "test", k)
	if a != ProgramKey("fdtd-2d", "test", k) {
		t.Fatal("program key not deterministic")
	}
	if len(a) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", a)
	}
	if a == ProgramKey("fdtd-2d", "bench", k) || a == ProgramKey("other", "test", k) {
		t.Fatal("program key insensitive to workload/scale")
	}
	if a == Key("fdtd-2d", "test", k, compiler.Options{}) {
		t.Fatal("program key collides with artifact key namespace")
	}
}

func TestProgramMemoryHitShares(t *testing.T) {
	k, _ := testKernel(t)
	c := New(Config{})
	key := ProgramKey("fdtd-2d", "test", k)
	p1, err := c.GetOrProgram(key, k)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.GetOrProgram(key, k)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("second lookup did not share the cached program")
	}
	st := c.ProgramStats()
	if st.Requests != 2 || st.MemHits != 1 || st.Compiles != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestProgramRebindOnNewKernelInstance(t *testing.T) {
	c := New(Config{})
	w1, _ := workloads.ByName("fdtd-2d", workloads.ScaleTest)
	w2, _ := workloads.ByName("fdtd-2d", workloads.ScaleTest) // fresh kernel pointers
	key := ProgramKey("fdtd-2d", "test", w1.Kernel)
	if key != ProgramKey("fdtd-2d", "test", w2.Kernel) {
		t.Fatal("identical kernels hashed differently")
	}
	if _, err := c.GetOrProgram(key, w1.Kernel); err != nil {
		t.Fatal(err)
	}
	p2, err := c.GetOrProgram(key, w2.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Kernel() != w2.Kernel {
		t.Fatal("rebind did not target the caller's kernel")
	}
	st := c.ProgramStats()
	if st.Rebinds != 1 || st.Compiles != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Rebound programs must still match a freshly compiled program.
	data := w2.NewData()
	dataI := map[string][]float64{}
	for name, buf := range data {
		cp := make([]float64, len(buf))
		copy(cp, buf)
		dataI[name] = cp
	}
	want, errI := runFresh(w2.Kernel, w2.Params, dataI)
	got, errV := p2.Run(w2.Params, data, nil)
	if errI != nil || errV != nil {
		t.Fatalf("errI=%v errV=%v", errI, errV)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("rebound program counts diverge from a fresh compile")
	}
}

func TestProgramDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w1, _ := workloads.ByName("pathfinder", workloads.ScaleTest)
	key := ProgramKey("pathfinder", "test", w1.Kernel)

	c1 := New(Config{Dir: dir})
	if _, err := c1.GetOrProgram(key, w1.Kernel); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, key+".program.gob")); err != nil {
		t.Fatalf("program not persisted: %v", err)
	}

	// A second cache (fresh process) loads from disk without compiling.
	c2 := New(Config{Dir: dir})
	w2, _ := workloads.ByName("pathfinder", workloads.ScaleTest)
	p, err := c2.GetOrProgram(key, w2.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	st := c2.ProgramStats()
	if st.DiskHits != 1 || st.Compiles != 0 {
		t.Fatalf("stats: %+v", st)
	}
	want, errI := runFresh(w2.Kernel, w2.Params, w2.NewData())
	got, errV := p.Run(w2.Params, w2.NewData(), nil)
	if errI != nil || errV != nil {
		t.Fatalf("errI=%v errV=%v", errI, errV)
	}
	if want.Ops != got.Ops || want.Loads != got.Loads || want.Stores != got.Stores {
		t.Fatal("disk-loaded program diverges from a fresh compile")
	}
}

func TestProgramCorruptDiskEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	k, _ := testKernel(t)
	key := ProgramKey("fdtd-2d", "test", k)
	if err := os.WriteFile(filepath.Join(dir, key+".program.gob"), []byte("not gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Config{Dir: dir})
	if _, err := c.GetOrProgram(key, k); err != nil {
		t.Fatal(err)
	}
	st := c.ProgramStats()
	if st.Errors != 1 || st.Compiles != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestProgramSingleFlight(t *testing.T) {
	k, _ := testKernel(t)
	c := New(Config{})
	key := ProgramKey("fdtd-2d", "test", k)
	const callers = 16
	var wg sync.WaitGroup
	progs := make([]*ir.Program, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.GetOrProgram(key, k)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if progs[i] != progs[0] {
			t.Fatal("racing callers got distinct programs")
		}
	}
	if st := c.ProgramStats(); st.Compiles != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestProgramImageFailingVerifyRecompiles plants a well-formed envelope
// whose image fails ir.ProgramFromImage's verifier (its constant pool is
// dropped, so register operands point past the frame): the load counts one
// store error, and the cache recompiles a program that runs correctly.
func TestProgramImageFailingVerifyRecompiles(t *testing.T) {
	dir := t.TempDir()
	k, w := testKernel(t)
	key := ProgramKey("fdtd-2d", "test", k)
	good, err := ir.NewProgram(k)
	if err != nil {
		t.Fatal(err)
	}
	img := good.Image()
	img.Consts = nil
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&envelope[ir.Image]{Version: ProgramFormatVersion, Key: key, Data: img}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key+".program.gob"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Config{Dir: dir})
	p, err := c.GetOrProgram(key, k)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.ProgramStats(); st.Errors != 1 || st.Compiles != 1 || st.DiskHits != 0 {
		t.Fatalf("stats: %+v", st)
	}
	memWant := w.NewData()
	memGot := map[string][]float64{}
	for name, buf := range memWant {
		memGot[name] = append([]float64(nil), buf...)
	}
	want, err := runFresh(k, w.Params, memWant)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Run(w.Params, memGot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(memWant, memGot) {
		t.Fatal("recompiled program diverges from a fresh compile")
	}
}
