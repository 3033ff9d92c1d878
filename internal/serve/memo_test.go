package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"distda/internal/artifact"
	"distda/internal/cliutil"
	"distda/internal/exp"
	"distda/internal/ir"
	"distda/internal/workloads"
)

// serveSpec submits spec to s, waits for it and returns its result bytes,
// failing the test unless the job ran (a miss) rather than being served
// from the result cache.
func serveSpec(t *testing.T, s *Server, spec JobSpec) ([]byte, JobStatus) {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("%+v: job did not finish", spec)
	}
	st := s.Status(j)
	if st.Cached {
		t.Fatalf("%+v: served from the result cache, want a miss", spec)
	}
	out, _, _ := s.Result(j)
	return out, st
}

// unmemoizedRun renders spec through exp.RunCell on a fresh instance's
// first input draw, with no stored reference: the run validates against
// its own reference program run, the way distda-run does.
func unmemoizedRun(t *testing.T, cache *artifact.Cache, spec JobSpec) []byte {
	t.Helper()
	def, err := workloads.Lookup(spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := cliutil.LookupConfig(spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	w := def.New(workloads.ScaleTest)
	cell := exp.Cell{W: w, Scale: workloads.ScaleTest, Cfg: cfg, Threads: spec.Threads}
	res, err := exp.RunCell(context.Background(), cache, nil, cell, w.NewData(), nil)
	if err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
	var buf bytes.Buffer
	cliutil.FprintResult(&buf, res)
	return buf.Bytes()
}

// TestMissMatchesUnmemoizedRun: for every built-in at test scale, under
// the host baseline and three accelerator substrates, at one and four
// threads, a served miss (stored inputs, stored reference output where
// the kernel is the built-in's own) returns exactly the bytes of a
// validating exp.RunCell that draws and checks on its own.
func TestMissMatchesUnmemoizedRun(t *testing.T) {
	s, err := NewServer(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	cache := artifact.New(artifact.Config{})
	for _, def := range workloads.Builtins() {
		for _, config := range []string{"OoO", "Dist-DA-IO", "Dist-DA-F", "Dist-DA-PIM"} {
			for _, threads := range []int{1, 4} {
				spec := JobSpec{Workload: def.Name, Config: config, Scale: "test", Threads: threads}
				got, st := serveSpec(t, s, spec)
				if st.State != StateDone {
					t.Fatalf("%+v: state %s (%s)", spec, st.State, st.Error)
				}
				if want := unmemoizedRun(t, cache, spec); !bytes.Equal(got, want) {
					t.Errorf("%+v: served miss differs from an unmemoized run\n--- served\n%s\n--- unmemoized\n%s", spec, got, want)
				}
				if !bytes.Contains(got, []byte("validated     true\n")) {
					t.Errorf("%+v: result not validated:\n%s", spec, got)
				}
			}
		}
		e, err := s.builtins.get(def.Name, workloads.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		if e.ref == nil {
			t.Errorf("%s: no run validated against the stored reference output", def.Name)
		}
	}
}

// TestCorruptReferenceFailsMiss: a stored reference output that differs
// from the run in one element fails the miss with the divergence error
// naming the object — a flipped bit, and the non-finite values
// compareData refuses against a finite 1.
func TestCorruptReferenceFailsMiss(t *testing.T) {
	s, err := NewServer(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	const name = "bfs"
	if _, st := serveSpec(t, s, JobSpec{Workload: name, Config: "Dist-DA-F", Scale: "test"}); st.State != StateDone {
		t.Fatalf("state %s (%s)", st.State, st.Error)
	}
	e, err := s.builtins.get(name, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	// The first element equal to 1 in the stored output, in object order.
	obj, at := "", -1
	for _, o := range e.w.Kernel.Objects {
		for i, v := range e.ref[o.Name] {
			if v == 1 && at < 0 {
				obj, at = o.Name, i
			}
		}
	}
	if at < 0 {
		t.Fatalf("%s's reference output holds no 1 to corrupt", name)
	}
	for i, c := range []struct {
		what string
		v    float64
	}{
		{"flipped bit", math.Float64frombits(math.Float64bits(1) ^ 1<<51)},
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	} {
		e.ref[obj][at] = c.v
		// Each clock override is a distinct result key, so every
		// submission is a miss.
		_, st := serveSpec(t, s, JobSpec{Workload: name, Config: "Dist-DA-IO", Scale: "test", GHz: 1 + i%3, Threads: 1 + i/3})
		e.ref[obj][at] = 1
		want := fmt.Sprintf("object %q diverges at [%d]: got 1, want %g", obj, at, c.v)
		if st.State != StateFailed || !strings.Contains(st.Error, want) {
			t.Errorf("%s in the stored output: state %s, error %q; want a failure containing %q", c.what, st.State, st.Error, want)
		}
	}
}

// TestReferenceRunsOncePerBuiltin: misses over several built-ins, two of
// them submitted together over one built-in so two workers may reach its
// memo at once, run each built-in's reference program exactly once. A
// bfs-mt run at four threads strip-mines its kernel and validates inside
// the run, never through the memo.
func TestReferenceRunsOncePerBuiltin(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	orig := runReference
	runReference = func(p *ir.Program, params map[string]float64, data map[string][]float64) error {
		mu.Lock()
		runs[p.Kernel().Name]++
		mu.Unlock()
		return orig(p, params, data)
	}
	t.Cleanup(func() { runReference = orig })

	s, err := NewServer(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	specs := []JobSpec{
		{Workload: "cholesky", Config: "Dist-DA-F", Scale: "test"},
		{Workload: "cholesky", Config: "Dist-DA-IO", Scale: "test"},
		{Workload: "pagerank", Config: "Dist-DA-F", Scale: "test"},
		{Workload: "cholesky", Config: "OoO", Scale: "test", Threads: 4},
		{Workload: "bfs-mt", Config: "Dist-DA-F", Scale: "test", Threads: 4},
		{Workload: "pagerank", Config: "Dist-DA-IO", Scale: "test", GHz: 3},
	}
	var jobs []*Job
	for _, spec := range specs {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(2 * time.Minute):
			t.Fatalf("%+v: job did not finish", specs[i])
		}
		if st := s.Status(j); st.State != StateDone || st.Cached {
			t.Fatalf("%+v: state %s (%s), cached %t; want a fresh run", specs[i], st.State, st.Error, st.Cached)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	kernel := func(name string) string {
		e, err := s.builtins.get(name, workloads.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		return e.w.Kernel.Name
	}
	for name, want := range map[string]int{"cholesky": 1, "pagerank": 1, "bfs-mt": 0} {
		if got := runs[kernel(name)]; got != want {
			t.Errorf("%s: %d reference runs through the memo, want %d (all: %v)", name, got, want, runs)
		}
	}
}
