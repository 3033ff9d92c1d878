package cgra

import (
	"fmt"

	"distda/internal/backend"
	"distda/internal/core"
	"distda/internal/engine"
	"distda/internal/profile"
	"distda/internal/trace"
)

// Backend is the "cgra" accelerator backend. The grid shape is
// backend-scoped configuration: backend.Opt("grid", "5x5") or "8x8".
// *Fabric is its backend.Engine.
var Backend backend.Backend = cgraBackend{}

type cgraBackend struct{}

func (cgraBackend) Caps() backend.Caps {
	// The fabric's request port is its memory-port provisioning, not an
	// issue width; Width beyond 1 has no meaning here.
	return backend.Caps{MaxPortWidth: 1}
}

func (cgraBackend) ValidateOptions(opts backend.Options) error {
	for _, kv := range opts {
		if kv.Key != "grid" {
			return fmt.Errorf("cgra backend: unknown option %q", kv.Key)
		}
	}
	_, err := GridFor(opts)
	return err
}

func (cgraBackend) NewEngine(spec backend.LaunchSpec) (backend.Engine, error) {
	f := new(Fabric)
	if err := f.Reset(spec); err != nil {
		return nil, err
	}
	return f, nil
}

// GridFor resolves the backend-scoped "grid" option ("5x5" or "8x8") to
// a provisioning preset.
func GridFor(opts backend.Options) (GridConfig, error) {
	name, ok := opts.Get("grid")
	if !ok {
		return GridConfig{}, fmt.Errorf("cgra backend: no grid provisioned (set the \"grid\" option to \"5x5\" or \"8x8\")")
	}
	switch name {
	case "5x5":
		return Grid5x5(), nil
	case "8x8":
		return Grid8x8(), nil
	}
	return GridConfig{}, fmt.Errorf("cgra backend: unknown grid %q (want \"5x5\" or \"8x8\")", name)
}

// planKey is the memo key of a definition's fabric plan. A single-pointer
// struct converts to an interface without allocating. The grid is not
// part of the key: within one run a definition always launches on the
// same backend with the same options.
type planKey struct{ def *core.AccelDef }

// planFor returns the definition's fabric plan on grid, validating the
// micro-program and mapping it only on the first launch of the run.
func planFor(spec backend.LaunchSpec, grid GridConfig) (*Plan, error) {
	key := planKey{spec.Def}
	if v, ok := spec.Memo.Load(key); ok {
		return v.(*Plan), nil
	}
	if err := spec.Def.Program.Validate(len(spec.Def.Accesses)); err != nil {
		return nil, err
	}
	p, err := NewPlan(spec.Def, grid)
	if err != nil {
		return nil, err
	}
	spec.Memo.Store(key, p)
	return p, nil
}

// Reset implements backend.Engine: it re-arms f for spec exactly as the
// backend's NewEngine(spec) builds a fabric, keeping the in-flight ring
// and operand storage of its earlier launches.
func (f *Fabric) Reset(spec backend.LaunchSpec) error {
	if spec.Width > 1 {
		return fmt.Errorf("cgra backend: port width %d exceeds the maximum 1", spec.Width)
	}
	grid, err := GridFor(spec.Opts)
	if err != nil {
		return err
	}
	plan, err := planFor(spec, grid)
	if err != nil {
		return err
	}
	if err := f.arm(plan, spec.Trips, spec.In, spec.Out, spec.Random,
		int64(engine.Div(spec.GHz)), spec.Meter); err != nil {
		return err
	}
	f.IterHist = spec.LatHist
	return nil
}

// Release implements backend.Engine. The fabric is cleared whole: its
// in-flight ring grows to the longest stall a run saw and every launch
// re-arms all of it, so keeping it from one run to the next would make
// every later run's launches pay for an earlier run's worst stall.
func (f *Fabric) Release() { *f = Fabric{} }

// Ops returns the executed operations.
func (f *Fabric) Ops() int64 { return f.ops }

// AttachTrace binds the fabric's trace scope at the launch's base-cycle
// offset on the run-global timeline.
func (f *Fabric) AttachTrace(tr *trace.Tracer, off int64) {
	f.Trace = tr.Component(fmt.Sprintf("fabric:%d", f.def.ID)).At(off)
}

// AddProfile folds the fabric's busy time — one initiation per iteration
// at the fabric clock — and its per-tile occupancy by PE class into the
// profiler and the launch's region.
func (f *Fabric) AddProfile(p *profile.Profiler, r *profile.Region) {
	label := fmt.Sprintf("fabric:%d", f.def.ID)
	busy := f.Iters * f.div
	pc := p.Component("fabric", label)
	pc.AddBusy(busy)
	pc.AddEvents(f.ops)
	r.AddComponent(label, busy)
	// Per-tile attribution, by PE class: each mapped op occupies one PE of
	// its class for one fabric cycle per iteration (the mapper is analytic —
	// modulo scheduling without physical placement).
	for class, ops := range peOps(f.prog) {
		if ops == 0 {
			continue
		}
		tile := p.Component("cgra_tile", label+"."+peNames[class])
		tile.AddBusy(int64(ops) * busy)
		tile.AddEvents(int64(ops) * f.Iters)
	}
}
