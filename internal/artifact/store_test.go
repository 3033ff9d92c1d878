package artifact

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"distda/internal/compiler"
)

// namespace drives one Cache namespace through a uniform write/read pair.
type namespace struct {
	name   string
	suffix string
	// write stores the value: a compute on miss for artifacts and programs,
	// PutResult for results.
	write func(c *Cache) error
	// read looks the value up and reports whether it was served.
	read  func(c *Cache) bool
	stats func(c *Cache) Stats
	key   string
}

func namespaces(t *testing.T) []namespace {
	k, _ := testKernel(t)
	opts := compiler.Options{Mode: compiler.ModeDist}
	akey := Key("fdtd-2d", "test", k, opts)
	compile := func(c *Cache) error {
		_, err := c.GetOrCompile(akey, k, func() (*compiler.Compiled, error) { return compiler.Compile(k, opts) })
		return err
	}
	pkey := ProgramKey("fdtd-2d", "test", k)
	program := func(c *Cache) error {
		_, err := c.GetOrProgram(pkey, k)
		return err
	}
	rkey := ResultKey("run", "fdtd-2d")
	return []namespace{
		{
			name: "artifact", suffix: ".artifact.gob", key: akey,
			write: compile,
			read:  func(c *Cache) bool { return compile(c) == nil },
			stats: (*Cache).Stats,
		},
		{
			name: "program", suffix: ".program.gob", key: pkey,
			write: program,
			read:  func(c *Cache) bool { return program(c) == nil },
			stats: (*Cache).ProgramStats,
		},
		{
			name: "result", suffix: ".result.gob", key: rkey,
			write: func(c *Cache) error {
				return c.PutResult(rkey, map[string]string{"kind": "run"}, []byte("cycles 42\n"))
			},
			read: func(c *Cache) bool {
				env, ok := c.GetResult(rkey)
				return ok && string(env.Body) == "cycles 42\n"
			},
			stats: (*Cache).ResultStats,
		},
	}
}

// TestDiskWriteFailureServesFromMemory: with Dir pointing at a regular
// file nothing can be written, yet every namespace counts one error and
// keeps serving the value from memory; PutResult reports the failure.
func TestDiskWriteFailureServesFromMemory(t *testing.T) {
	for _, ns := range namespaces(t) {
		t.Run(ns.name, func(t *testing.T) {
			file := filepath.Join(t.TempDir(), "not-a-dir")
			if err := os.WriteFile(file, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			c := New(Config{Dir: file})
			err := ns.write(c)
			if wantErr := ns.name == "result"; (err != nil) != wantErr {
				t.Fatalf("write error = %v, want error: %t", err, wantErr)
			}
			if st := ns.stats(c); st.Errors != 1 {
				t.Errorf("stats = %+v, want 1 error", st)
			}
			before := ns.stats(c).MemHits
			if !ns.read(c) {
				t.Fatal("value not served after a failed disk write")
			}
			if st := ns.stats(c); st.MemHits != before+1 || st.Errors != 1 {
				t.Errorf("stats = %+v, want a memory hit and still 1 error", st)
			}
		})
	}
}

// TestTruncatedDiskEntryIsRepaired: an entry cut to half its bytes is an
// error and a miss, and the next write makes it a disk hit again.
func TestTruncatedDiskEntryIsRepaired(t *testing.T) {
	for _, ns := range namespaces(t) {
		t.Run(ns.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := ns.write(New(Config{Dir: dir})); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, ns.key+ns.suffix)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}

			c := New(Config{Dir: dir})
			served := ns.read(c)
			st := ns.stats(c)
			if st.Errors != 1 || st.DiskHits != 0 || st.Misses+st.Compiles != 1 {
				t.Errorf("stats = %+v, want 1 error, 0 disk hits, 1 miss or compile", st)
			}
			if served != (ns.name != "result") {
				t.Errorf("served = %t on a truncated entry", served)
			}
			if err := ns.write(c); err != nil {
				t.Fatal(err)
			}

			fresh := New(Config{Dir: dir})
			if !ns.read(fresh) {
				t.Fatal("repaired entry not served")
			}
			if st := ns.stats(fresh); st.DiskHits != 1 || st.Errors != 0 || st.Compiles != 0 {
				t.Errorf("after repair stats = %+v, want 1 disk hit", st)
			}
		})
	}
}

// TestMixedNamespacesConcurrent drives all three namespaces of one
// disk-backed cache from 16 goroutines: every call is one request, and
// each key compiles once.
func TestMixedNamespacesConcurrent(t *testing.T) {
	k, _ := testKernel(t)
	c := New(Config{Dir: t.TempDir()})
	modes := []compiler.Mode{compiler.ModeDist, compiler.ModeMono}
	var akeys []string
	var compiles [2]atomic.Int64
	for _, m := range modes {
		akeys = append(akeys, Key("fdtd-2d", "test", k, compiler.Options{Mode: m}))
	}
	pkeys := []string{ProgramKey("fdtd-2d", "test", k), ProgramKey("fdtd-2d", "bench", k)}
	const goroutines, iters = 16, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				j := (g + i) % 2
				if _, err := c.GetOrCompile(akeys[j], k, func() (*compiler.Compiled, error) {
					compiles[j].Add(1)
					return compiler.Compile(k, compiler.Options{Mode: modes[j]})
				}); err != nil {
					t.Error(err)
				}
				if _, err := c.GetOrProgram(pkeys[j], k); err != nil {
					t.Error(err)
				}
				rkey := ResultKey(fmt.Sprint(g % 4))
				if err := c.PutResult(rkey, nil, []byte(rkey)); err != nil {
					t.Error(err)
				}
				if env, ok := c.GetResult(rkey); !ok || string(env.Body) != rkey {
					t.Errorf("result %s not served after Put", rkey)
				}
			}
		}(g)
	}
	wg.Wait()

	const calls = goroutines * iters
	if st := c.Stats(); st.Requests != calls || st.Compiles != 2 || st.MemHits != calls-2 {
		t.Errorf("artifact stats = %+v, want %d requests, 2 compiles", st, calls)
	}
	for j := range compiles {
		if n := compiles[j].Load(); n != 1 {
			t.Errorf("key %d compiled %d times, want 1", j, n)
		}
	}
	if st := c.ProgramStats(); st.Requests != calls || st.Compiles != 2 || st.MemHits != calls-2 {
		t.Errorf("program stats = %+v, want %d requests, 2 compiles", st, calls)
	}
	if st := c.ResultStats(); st.Requests != calls || st.Stores != calls || st.MemHits != calls || st.Errors != 0 {
		t.Errorf("result stats = %+v, want %d requests, stores and memory hits", st, calls)
	}
}
