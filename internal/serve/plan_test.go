package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"distda/internal/cliutil"
	"distda/internal/workloads"
)

// TestPlanWarmBuiltin: once a built-in (workload, scale) is resolved,
// planning a run spec over it builds no workload and stays within a small
// allocation budget; building the pagerank workload alone takes 94.
func TestPlanWarmBuiltin(t *testing.T) {
	var tab builtins
	spec := JobSpec{Workload: "pagerank", Config: "dist-da-io", Scale: "test", GHz: 3, Threads: 2}
	first, err := planJob(spec, &tab)
	if err != nil {
		t.Fatal(err)
	}
	e, err := tab.get("pagerank", workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	build := e.def.New
	e.def.New = func(s workloads.Scale) *workloads.Workload {
		builds++
		return build(s)
	}

	allocs := testing.AllocsPerRun(100, func() {
		p, err := planJob(spec, &tab)
		if err != nil || p.key != first.key || p.workload != first.workload {
			t.Fatalf("warm plan = %+v, %v; want key %s over the first plan's workload", p, err, first.key)
		}
	})
	if builds != 0 {
		t.Errorf("warm planning built %d workloads, want 0", builds)
	}
	if allocs > 16 {
		t.Errorf("warm planning takes %.0f allocations, want at most 16", allocs)
	}
	// A run draws its inputs from exactly one fresh instance.
	first.src.newData()
	if builds != 1 {
		t.Errorf("one input draw built %d workloads, want 1", builds)
	}
}

// TestMissesShareOneKernel: run-job misses over one (workload, scale,
// threads) under several configurations compile and validate against one
// kernel instance, so neither the compile cache nor the program cache
// re-binds an entry to a fresh kernel.
func TestMissesShareOneKernel(t *testing.T) {
	s, err := NewServer(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(t.Context()) })
	for _, c := range []struct {
		config string
		ghz    int
	}{
		{"Dist-DA-F", 0},
		{"Dist-DA-F", 3},
		{"Dist-DA-IO", 0},
		{"Dist-DA-IO", 1},
		{"Mono-DA-F", 0},
		{"OoO", 0},
	} {
		j, err := s.Submit(JobSpec{Workload: "cholesky", Scale: "test", Threads: 2, Config: c.config, GHz: c.ghz})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: job did not finish", c.config)
		}
		if st := s.Status(j); st.State != StateDone || st.Cached {
			t.Fatalf("%s@%d: state %s (%s), cached %t; want a fresh run", c.config, c.ghz, st.State, st.Error, st.Cached)
		}
	}
	cc, pc := s.Stats().CompileCache, s.cache.ProgramStats()
	if cc.MemHits == 0 || pc.MemHits == 0 {
		t.Fatalf("no cache reuse to check: compile %+v, program %+v", cc, pc)
	}
	if cc.Rebinds != 0 || pc.Rebinds != 0 {
		t.Errorf("rebinds: compile cache %d, program cache %d; want 0", cc.Rebinds, pc.Rebinds)
	}
}

// FuzzPlanJob feeds arbitrary submission bodies through the submit
// decoder and the planner. Planning never panics, a normalized spec plans
// to itself and to the same key, and an unknown workload or configuration
// is refused with the text the API has always returned.
func FuzzPlanJob(f *testing.F) {
	for _, seed := range []string{
		`{"workload": "fdtd-2d", "scale": "test"}`,
		`{"workload": "bfs-mt", "scale": "test", "threads": 4, "ghz": 3, "params": {"M": 3}}`,
		`{"workload": "spmv", "config": "dist-da-io", "scale": "test", "tenant": "a"}`,
		`{"workload": "fdtd-2d", "scale": "test", "kernel": "kernel k() {}"}`,
		`{"workload": "nope", "scale": "test"}`,
		`{"workload": "bfs", "config": "warp-drive", "scale": "test"}`,
		`{"kind": "matrix", "scale": "test", "all": true}`,
		`{"kind": "matrix", "scale": "test", "selection": {"figs": ["7"]}}`,
		`{"kind": "sweep"}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	var tab builtins
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		p, err := planJob(spec, &tab)
		if err != nil {
			checkPlanError(t, spec, err)
			return
		}
		q, err := planJob(p.spec, &tab)
		if err != nil {
			t.Fatalf("normalized spec %+v does not plan: %v", p.spec, err)
		}
		if q.key != p.key || !reflect.DeepEqual(q.spec, p.spec) {
			t.Fatalf("normalized spec plans to %+v key %s, want itself and key %s", q.spec, q.key, p.key)
		}
	})
}

// checkPlanError pins the refusal text of a run spec naming an unknown
// workload or configuration.
func checkPlanError(t *testing.T, spec JobSpec, err error) {
	t.Helper()
	if spec.Kind != "" && spec.Kind != KindRun || spec.Workload == "" {
		return
	}
	if spec.Scale == "" {
		spec.Scale = "bench"
	}
	if _, serr := cliutil.ParseScale(spec.Scale); serr != nil {
		return
	}
	var want string
	if _, werr := workloads.Lookup(spec.Workload); werr != nil {
		want = fmt.Sprintf("workloads: unknown workload %q", spec.Workload)
	} else if _, cerr := cliutil.LookupConfig(spec.Config); spec.Config != "" && cerr != nil {
		want = fmt.Sprintf("unknown configuration %q (want OoO, Mono-CA, Mono-DA-IO, Mono-DA-F, "+
			"Dist-DA-IO, Dist-DA-F, Dist-DA-IO+SW, Dist-DA-F+A, Dist-DA-OffChip or Dist-DA-PIM)", spec.Config)
	} else {
		return
	}
	if err.Error() != want {
		t.Fatalf("%+v: error %q, want %q", spec, err, want)
	}
}

// BenchmarkServeSubmit measures the submit path of run jobs: planning
// specs over already resolved built-in workloads, and whole Server.Submit
// calls answered from the result cache. One op is submitBatch submissions
// (every built-in workload at test scale, several times over), so even the
// CI gate's few iterations time a stable amount of work.
func BenchmarkServeSubmit(b *testing.B) {
	var specs []JobSpec
	for len(specs) < submitBatch {
		for _, w := range workloads.Builtins() {
			specs = append(specs, JobSpec{Workload: w.Name, Config: "Dist-DA-IO", Scale: "test", GHz: 3})
		}
	}
	specs = specs[:submitBatch]
	b.Run("plan", func(b *testing.B) {
		var tab builtins
		for _, spec := range specs {
			if _, err := planJob(spec, &tab); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, spec := range specs {
				if _, err := planJob(spec, &tab); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		s, err := NewServer(Config{Workers: 2, QueueDepth: submitBatch})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Shutdown(b.Context())
		for _, spec := range specs {
			j, err := s.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			<-j.Done()
			if st := s.Status(j); st.State != StateDone {
				b.Fatalf("%s: state %s (%s)", spec.Workload, st.State, st.Error)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, spec := range specs {
				if j, err := s.Submit(spec); err != nil || j.exec != nil {
					b.Fatalf("%s: not served from the result cache (%v)", spec.Workload, err)
				}
			}
		}
	})
}

// submitBatch is the number of submissions in one BenchmarkServeSubmit op.
const submitBatch = 60
