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
// lookup inside the simulator is by loop pointer identity. Bytecode
// programs (program.go) and rendered job results (result.go) ride the same
// store under their own namespaces.
package artifact

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"

	"distda/internal/compiler"
	"distda/internal/core"
	"distda/internal/dfg"
	"distda/internal/ir"
)

// FormatVersion is bumped whenever the key derivation or the on-disk
// encoding changes; old entries then simply miss.
const FormatVersion = 4

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
	return KeyText(workload, scale, ir.Format(k), opts)
}

// KeyText is Key for a kernel whose ir.Format text is already at hand.
func KeyText(workload, scale, text string, opts compiler.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "distda-artifact-v%d\nworkload=%s\nscale=%s\n", FormatVersion, workload, scale)
	fmt.Fprintf(h, "mode=%d maxpart=%d noobj=%t nostream=%t nofold=%t\n",
		opts.Mode, opts.MaxPartitions, opts.NoObjConstraint, opts.NoStreamSpecialization, opts.NoEpilogueFold)
	fmt.Fprintf(h, "kernel:\n%s", text)
	return hex.EncodeToString(h.Sum(nil))
}

// Config sizes a Cache.
type Config struct {
	// MaxEntries caps each namespace's in-memory LRU (0 selects
	// DefaultMaxEntries). Size it above the working set: the full paper
	// matrix needs at most 2 artifacts per workload (Mono + Dist lowering),
	// 24 total.
	MaxEntries int
	// Dir, when non-empty, enables the on-disk store: one gob file per key
	// and namespace under Dir, written atomically (WriteFileAtomic). The
	// directory is created on first use.
	Dir string
}

// DefaultMaxEntries is the default in-memory LRU capacity.
const DefaultMaxEntries = 256

// Cache is a process-wide content-addressed cache with three namespaces —
// compiled artifacts, bytecode programs (program.go) and rendered results
// (result.go) — each its own LRU, disk files and counters under the same
// policy. It is safe for concurrent use.
type Cache struct {
	compiled *store[*compiler.Compiled, savedCompiled]
	programs *store[*ir.Program, ir.Image]
	results  *store[*ResultEnvelope, savedResult]
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	return &Cache{
		compiled: newStore(cfg, ".artifact.gob", FormatVersion, saveCompiled, loadCompiled, bindCompiled),
		programs: newStore(cfg, ".program.gob", ProgramFormatVersion, (*ir.Program).Image, ir.ProgramFromImage, (*ir.Program).Rebind),
		results:  newStore(cfg, ".result.gob", ResultFormatVersion, saveResult, loadResult, nil),
	}
}

// Stats returns a snapshot of the compiled-artifact counters.
func (c *Cache) Stats() Stats { return c.compiled.snapshot() }

// Len returns the number of in-memory compiled artifacts.
func (c *Cache) Len() int { return c.compiled.len() }

// GetOrCompile returns the artifact stored under key, bound to kernel k.
// Misses consult the on-disk store (when configured) and otherwise invoke
// compile; concurrent callers with the same key wait for one resolution.
// The returned artifact is shared and must be treated as read-only — use
// compiler.Compile directly for artifacts that will be annotated/mutated.
func (c *Cache) GetOrCompile(key string, k *ir.Kernel, compile func() (*compiler.Compiled, error)) (*compiler.Compiled, error) {
	return c.compiled.getOrCompute(key, k, compile)
}

// savedCompiled is an artifact's on-disk form. Region loop pointers are
// elided (they are positional: region i belongs to the i-th innermost
// loop) and re-established by Bind at load time.
type savedCompiled struct {
	Regions []*core.Region
	Infos   []savedInfo
}

type savedInfo struct {
	Graph *dfg.Graph
	Insts int
	Why   string
}

func saveCompiled(compiled *compiler.Compiled) savedCompiled {
	var d savedCompiled
	for i, r := range compiled.Regions {
		// Shallow-copy to drop the loop pointer: it is process-local and
		// re-derived positionally on load.
		cp := *r
		cp.Loop = nil
		d.Regions = append(d.Regions, &cp)
		info := compiled.Infos[i]
		d.Infos = append(d.Infos, savedInfo{Graph: info.Graph, Insts: info.Insts, Why: info.Why})
	}
	return d
}

// loadCompiled rebuilds, binds and validates a decoded artifact.
func loadCompiled(d savedCompiled, k *ir.Kernel) (*compiler.Compiled, error) {
	if len(d.Infos) != len(d.Regions) {
		return nil, fmt.Errorf("artifact: %d infos for %d regions", len(d.Infos), len(d.Regions))
	}
	compiled := &compiler.Compiled{Regions: d.Regions}
	for i, si := range d.Infos {
		compiled.Infos = append(compiled.Infos, &compiler.RegionInfo{
			Region: d.Regions[i], Graph: si.Graph, Insts: si.Insts, Why: si.Why,
		})
	}
	bound, err := Bind(compiled, k)
	if err != nil {
		return nil, err
	}
	for _, r := range bound.Regions {
		if r.Class != core.ClassNotOffloaded && len(r.Accels) > 0 {
			if err := r.Validate(); err != nil {
				return nil, err
			}
		}
	}
	return bound, nil
}

// bindCompiled is Bind, short-circuited for an artifact already bound to k.
func bindCompiled(compiled *compiler.Compiled, k *ir.Kernel) (*compiler.Compiled, error) {
	if compiled.Kernel == k {
		return compiled, nil
	}
	return Bind(compiled, k)
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
	if err := out.LowerHost(); err != nil {
		return nil, err
	}
	return out, nil
}
