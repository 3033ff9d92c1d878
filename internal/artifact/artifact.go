// Package artifact is a content-addressed cache for compiled offload
// artifacts. An artifact (a *compiler.Compiled) is fully determined by the
// kernel text and the compiler options — the simulator only ever reads it —
// so the 12-workload × 6-configuration experiment matrix can compile each
// (workload, compiler-mode, flags) pair exactly once and share the result
// across cells, worker goroutines, whole runs, and (through the optional
// on-disk store) across processes.
//
// Keys are deterministic SHA-256 content hashes (see Key). Lookup order is
// in-memory LRU → on-disk store → compile; concurrent requests for the same
// key share a single compilation. Artifacts loaded from disk are re-bound
// to the caller's kernel by innermost-loop position (see Bind) since region
// lookup inside the simulator is by loop pointer identity.
package artifact

import (
	"container/list"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"distda/internal/compiler"
	"distda/internal/core"
	"distda/internal/dfg"
	"distda/internal/ir"
)

// FormatVersion is bumped whenever the key derivation or the on-disk
// encoding changes; old entries then simply miss.
const FormatVersion = 2

func init() {
	// The artifact graph reaches ir.Expr interface values (stream
	// configuration expressions, trip counts, scalar binds, affine forms).
	gob.Register(ir.Const{})
	gob.Register(ir.Param{})
	gob.Register(ir.IV{})
	gob.Register(ir.Local{})
	gob.Register(ir.Load{})
	gob.Register(ir.Bin{})
	gob.Register(ir.Un{})
	gob.Register(ir.Sel{})
}

// Key returns the content address of the artifact produced by compiling
// kernel k (from the named workload at the named scale) under opts. The
// hash covers the formatted kernel text, so any change to the workload
// generator, a strip-mined thread variant, or a new scale yields a new key;
// equal keys imply byte-equivalent compilations.
func Key(workload, scale string, k *ir.Kernel, opts compiler.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "distda-artifact-v%d\nworkload=%s\nscale=%s\n", FormatVersion, workload, scale)
	fmt.Fprintf(h, "mode=%d maxpart=%d noobj=%t nostream=%t nofold=%t pim=%d\n",
		opts.Mode, opts.MaxPartitions, opts.NoObjConstraint, opts.NoStreamSpecialization, opts.NoEpilogueFold, opts.PIMBytes)
	fmt.Fprintf(h, "kernel:\n%s", ir.Format(k))
	return hex.EncodeToString(h.Sum(nil))
}

// Stats are the cache's cumulative counters. All values are deterministic
// for a deterministic request sequence (single-flight collapses racing
// compilations), so they can be added to a profile's counters without
// perturbing worker-count invariance — provided no LRU eviction occurred.
type Stats struct {
	Requests int64 // GetOrCompile calls
	MemHits  int64 // served from the in-memory LRU
	DiskHits int64 // decoded from the on-disk store
	Compiles int64 // compiled from scratch
	Rebinds  int64 // re-bound to a new kernel instance
	Evicted  int64 // LRU evictions (capacity pressure)
	Errors   int64 // failed disk loads that fell back to compiling
}

// Config sizes a Cache.
type Config struct {
	// MaxEntries caps the in-memory LRU (0 selects DefaultMaxEntries).
	// Size it above the working set: the full paper matrix needs at most
	// 2 artifacts per workload (Mono + Dist lowering), 24 total.
	MaxEntries int
	// Dir, when non-empty, enables the on-disk store: one gob file per key
	// under Dir, written atomically (temp file + rename). The directory is
	// created on first use.
	Dir string
}

// DefaultMaxEntries is the default in-memory LRU capacity.
const DefaultMaxEntries = 256

// Cache is a process-wide artifact cache. It is safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	max    int
	dir    string
	ll     *list.List               // front = most recently used
	byKey  map[string]*list.Element // value: *entry
	flight map[string]*flight
	stats  Stats

	// Program side (see program.go): same policy, separate namespace.
	progLL     *list.List               // front = most recently used
	progByKey  map[string]*list.Element // value: *progEntry
	progFlight map[string]*progFlight
	progStats  ProgramStats

	// Result side (see result.go): same policy, separate namespace.
	resultLL    *list.List               // front = most recently used
	resultByKey map[string]*list.Element // value: *resultEntry
	resultStats ResultStats
}

type entry struct {
	key string
	c   *compiler.Compiled
}

type flight struct {
	done chan struct{}
	c    *compiler.Compiled
	err  error
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	max := cfg.MaxEntries
	if max <= 0 {
		max = DefaultMaxEntries
	}
	return &Cache{
		max:         max,
		dir:         cfg.Dir,
		ll:          list.New(),
		byKey:       map[string]*list.Element{},
		flight:      map[string]*flight{},
		progLL:      list.New(),
		progByKey:   map[string]*list.Element{},
		progFlight:  map[string]*progFlight{},
		resultLL:    list.New(),
		resultByKey: map[string]*list.Element{},
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// GetOrCompile returns the artifact stored under key, bound to kernel k.
// Misses consult the on-disk store (when configured) and otherwise invoke
// compile; concurrent callers with the same key wait for one resolution.
// The returned artifact is shared and must be treated as read-only — use
// compiler.Compile directly for artifacts that will be annotated/mutated.
func (c *Cache) GetOrCompile(key string, k *ir.Kernel, compile func() (*compiler.Compiled, error)) (*compiler.Compiled, error) {
	first := true
	for {
		c.mu.Lock()
		if first {
			// Count each external call once — a caller that waited out an
			// in-flight compile re-enters the loop but is still one request,
			// keeping the counters scheduling-independent.
			c.stats.Requests++
			first = false
		}
		if el, ok := c.byKey[key]; ok {
			e := el.Value.(*entry)
			if e.c.Kernel == k {
				c.ll.MoveToFront(el)
				c.stats.MemHits++
				c.mu.Unlock()
				return e.c, nil
			}
			// Same content, different kernel instance (e.g. a new matrix
			// build): re-bind region lookup to the caller's loop pointers
			// and store the re-bound artifact as the canonical entry.
			bound, err := Bind(e.c, k)
			if err == nil {
				e.c = bound
				c.ll.MoveToFront(el)
				c.stats.MemHits++
				c.stats.Rebinds++
				c.mu.Unlock()
				return bound, nil
			}
			// Structural mismatch: the key lied (or the kernel changed
			// under the same name). Drop the entry and fall through to a
			// fresh compile.
			c.ll.Remove(el)
			delete(c.byKey, key)
			c.stats.Errors++
		}
		if f, ok := c.flight[key]; ok {
			c.mu.Unlock()
			<-f.done
			if f.err != nil {
				return nil, f.err
			}
			// Loop: the artifact is now in the LRU (possibly needing a
			// re-bind for this caller's kernel).
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.flight[key] = f
		c.mu.Unlock()

		f.c, f.err = c.resolve(key, k, compile)

		c.mu.Lock()
		delete(c.flight, key)
		if f.err == nil {
			c.insert(key, f.c)
		}
		c.mu.Unlock()
		close(f.done)
		return f.c, f.err
	}
}

// resolve loads key from disk or compiles it. Runs outside the cache lock.
func (c *Cache) resolve(key string, k *ir.Kernel, compile func() (*compiler.Compiled, error)) (*compiler.Compiled, error) {
	if c.dir != "" {
		if compiled, err := c.loadDisk(key, k); err == nil {
			c.mu.Lock()
			c.stats.DiskHits++
			c.mu.Unlock()
			return compiled, nil
		} else if !os.IsNotExist(err) {
			// Corrupt or unreadable entry: recompile and overwrite.
			c.mu.Lock()
			c.stats.Errors++
			c.mu.Unlock()
		}
	}
	compiled, err := compile()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.Compiles++
	c.mu.Unlock()
	if c.dir != "" {
		// Best-effort: a failed disk write leaves a working memory entry.
		_ = c.storeDisk(key, compiled)
	}
	return compiled, nil
}

// insert adds the artifact under key, evicting the LRU tail past capacity.
// Caller holds c.mu.
func (c *Cache) insert(key string, compiled *compiler.Compiled) {
	if el, ok := c.byKey[key]; ok {
		el.Value.(*entry).c = compiled
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&entry{key: key, c: compiled})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.byKey, tail.Value.(*entry).key)
		c.stats.Evicted++
	}
}

// path returns the disk file for key.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".artifact.gob")
}

// envelope is the on-disk representation. Region loop pointers are elided
// (they are positional: region i belongs to the i-th innermost loop) and
// re-established by Bind at load time.
type envelope struct {
	Version int
	Key     string
	Regions []*core.Region
	Infos   []savedInfo
}

type savedInfo struct {
	Graph *dfg.Graph
	Insts int
	Why   string
}

// storeDisk writes the artifact atomically (temp + rename).
func (c *Cache) storeDisk(key string, compiled *compiler.Compiled) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	env := &envelope{Version: FormatVersion, Key: key}
	for i, r := range compiled.Regions {
		// Shallow-copy to drop the loop pointer: it is process-local and
		// re-derived positionally on load.
		cp := *r
		cp.Loop = nil
		env.Regions = append(env.Regions, &cp)
		info := compiled.Infos[i]
		env.Infos = append(env.Infos, savedInfo{Graph: info.Graph, Insts: info.Insts, Why: info.Why})
	}
	tmp, err := os.CreateTemp(c.dir, "."+key+".tmp-*")
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(tmp).Encode(env); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}

// loadDisk reads, validates and binds the artifact stored under key.
func (c *Cache) loadDisk(key string, k *ir.Kernel) (*compiler.Compiled, error) {
	f, err := os.Open(c.path(key))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var env envelope
	if err := gob.NewDecoder(f).Decode(&env); err != nil {
		return nil, fmt.Errorf("artifact: decode %s: %w", c.path(key), err)
	}
	if env.Version != FormatVersion || env.Key != key {
		return nil, fmt.Errorf("artifact: %s: stale entry (version %d, key %.12s…)", c.path(key), env.Version, env.Key)
	}
	if len(env.Infos) != len(env.Regions) {
		return nil, fmt.Errorf("artifact: %s: %d infos for %d regions", c.path(key), len(env.Infos), len(env.Regions))
	}
	compiled := &compiler.Compiled{Regions: env.Regions}
	for i, si := range env.Infos {
		compiled.Infos = append(compiled.Infos, &compiler.RegionInfo{
			Region: env.Regions[i], Graph: si.Graph, Insts: si.Insts, Why: si.Why,
		})
	}
	bound, err := Bind(compiled, k)
	if err != nil {
		return nil, err
	}
	for _, r := range bound.Regions {
		if r.Class != core.ClassNotOffloaded && len(r.Accels) > 0 {
			if err := r.Validate(); err != nil {
				return nil, fmt.Errorf("artifact: %s: %w", c.path(key), err)
			}
		}
	}
	return bound, nil
}

// Bind re-targets a compiled artifact at kernel k: regions are matched to
// k's innermost loops by position (the compiler emits exactly one region
// per innermost loop, in traversal order) and the loop-pointer index used
// by the simulator is rebuilt. The input artifact is not mutated; regions
// are shallow-copied with fresh Loop pointers, while accelerator
// definitions (read-only at run time) stay shared. Bind fails when k's
// loop structure does not match the artifact — the caller should then
// treat the lookup as a miss and recompile.
func Bind(compiled *compiler.Compiled, k *ir.Kernel) (*compiler.Compiled, error) {
	loops := ir.InnermostLoops(k.Body)
	if len(loops) != len(compiled.Regions) {
		return nil, fmt.Errorf("artifact: kernel %q has %d innermost loops, artifact has %d regions",
			k.Name, len(loops), len(compiled.Regions))
	}
	out := &compiler.Compiled{Kernel: k, ByLoop: map[*ir.For]*core.Region{}}
	for i, r := range compiled.Regions {
		cp := *r
		cp.Loop = loops[i]
		out.Regions = append(out.Regions, &cp)
		out.ByLoop[loops[i]] = &cp
		info := *compiled.Infos[i]
		info.Region = &cp
		out.Infos = append(out.Infos, &info)
	}
	return out, nil
}
