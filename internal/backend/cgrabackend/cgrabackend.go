// Package cgrabackend registers the statically mapped CGRA fabric
// (internal/cgra) as the "cgra" accelerator backend. The grid shape —
// formerly a top-level sim.Config field — is backend-scoped configuration:
// backend.Opt("grid", "5x5") or "8x8".
package cgrabackend

import (
	"fmt"

	"distda/internal/backend"
	"distda/internal/cgra"
	"distda/internal/core"
	"distda/internal/engine"
	"distda/internal/profile"
	"distda/internal/trace"
)

func init() { backend.Register(cgraBackend{}) }

type cgraBackend struct{}

func (cgraBackend) Name() string { return "cgra" }

func (cgraBackend) Caps() backend.Caps {
	// The fabric's request port is its memory-port provisioning, not an
	// issue width; Width beyond 1 has no meaning here.
	return backend.Caps{MaxPortWidth: 1, NearData: true, RandomAccess: true}
}

// gridFor resolves the "grid" option to a provisioning preset.
func gridFor(opts backend.Options) (cgra.GridConfig, error) {
	name, ok := opts.Get("grid")
	if !ok {
		return cgra.GridConfig{}, fmt.Errorf("cgra backend: no grid provisioned (set the \"grid\" option to \"5x5\" or \"8x8\")")
	}
	switch name {
	case "5x5":
		return cgra.Grid5x5(), nil
	case "8x8":
		return cgra.Grid8x8(), nil
	}
	return cgra.GridConfig{}, fmt.Errorf("cgra backend: unknown grid %q (want \"5x5\" or \"8x8\")", name)
}

func (cgraBackend) ValidateOptions(opts backend.Options) error {
	for _, kv := range opts {
		if kv.Key != "grid" {
			return fmt.Errorf("cgra backend: unknown option %q", kv.Key)
		}
	}
	_, err := gridFor(opts)
	return err
}

func (cgraBackend) NewEngine(spec backend.LaunchSpec) (backend.Engine, error) {
	if spec.Width > 1 {
		return nil, fmt.Errorf("cgra backend: port width %d exceeds the maximum 1", spec.Width)
	}
	grid, err := gridFor(spec.Opts)
	if err != nil {
		return nil, err
	}
	plan, err := planFor(spec, grid)
	if err != nil {
		return nil, err
	}
	f, err := cgra.NewFabric(plan, spec.Trips, spec.In, spec.Out, spec.Random,
		int64(engine.Div(spec.GHz)), spec.Meter)
	if err != nil {
		return nil, err
	}
	f.IterHist = spec.Metrics.Histogram("cgra/iter_lat")
	return &cgraEngine{f: f, id: spec.Def.ID}, nil
}

// planKey is the memo key of a definition's fabric plan. A single-pointer
// struct converts to an interface without allocating. The grid is not
// part of the key: within one run a definition always launches on the
// same backend with the same options.
type planKey struct{ def *core.AccelDef }

// planFor returns the definition's fabric plan on grid, mapping it only on
// the first launch of the run.
func planFor(spec backend.LaunchSpec, grid cgra.GridConfig) (*cgra.Plan, error) {
	key := planKey{spec.Def}
	if v, ok := spec.Memo.Load(key); ok {
		return v.(*cgra.Plan), nil
	}
	p, err := cgra.NewPlan(spec.Def, grid)
	if err != nil {
		return nil, err
	}
	spec.Memo.Store(key, p)
	return p, nil
}

// cgraEngine adapts *cgra.Fabric to the backend.Engine contract.
type cgraEngine struct {
	f  *cgra.Fabric
	id int
}

func (e *cgraEngine) Step(now int64) bool       { return e.f.Step(now) }
func (e *cgraEngine) Done() bool                { return e.f.Done() }
func (e *cgraEngine) NextEvent(now int64) int64 { return e.f.NextEvent(now) }
func (e *cgraEngine) Latch() *engine.Latch      { return e.f.Latch() }
func (e *cgraEngine) SetReg(r int, v float64)   { e.f.SetReg(r, v) }
func (e *cgraEngine) Reg(r int) float64         { return e.f.Reg(r) }
func (e *cgraEngine) Ops() int64                { return e.f.Ops }

func (e *cgraEngine) AttachTrace(tr *trace.Tracer, off int64) {
	e.f.Trace = tr.Component(fmt.Sprintf("fabric:%d", e.id)).At(off)
}

func (e *cgraEngine) AddProfile(p *profile.Profiler, r *profile.Region) {
	label := fmt.Sprintf("fabric:%d", e.id)
	pc := p.Component("fabric", label)
	pc.AddBusy(e.f.BusyBaseCycles())
	pc.AddEvents(e.f.Ops)
	r.AddComponent(label, e.f.BusyBaseCycles())
	// Per-tile attribution, by PE class: each mapped op occupies one PE of
	// its class for one fabric cycle per iteration (the mapper is analytic —
	// modulo scheduling without physical placement).
	intOps, cplxOps, fpOps, memOps := e.f.TileOps()
	for _, tc := range []struct {
		class string
		ops   int64
	}{{"int", intOps}, {"complex", cplxOps}, {"float", fpOps}, {"mem", memOps}} {
		if tc.ops == 0 {
			continue
		}
		tile := p.Component("cgra_tile", label+"."+tc.class)
		// One fabric cycle per op per iteration, in base cycles:
		// BusyBaseCycles() is Iters x clock divisor.
		tile.AddBusy(tc.ops * e.f.BusyBaseCycles())
		tile.AddEvents(tc.ops * e.f.Iters)
	}
}
