// Package iocorebackend registers the lightweight single-issue in-order
// core (internal/iocore) as the "iocore" accelerator backend.
package iocorebackend

import (
	"fmt"

	"distda/internal/backend"
	"distda/internal/engine"
	"distda/internal/iocore"
	"distda/internal/profile"
	"distda/internal/trace"
)

// MaxWidth is the widest in-order issue the model supports (Fig. 14's +SW
// configuration uses 4).
const MaxWidth = 8

func init() { backend.Register(ioBackend{}) }

type ioBackend struct{}

func (ioBackend) Name() string { return "iocore" }

func (ioBackend) Caps() backend.Caps {
	return backend.Caps{MaxPortWidth: MaxWidth, NearData: true, RandomAccess: true}
}

func (ioBackend) ValidateOptions(opts backend.Options) error {
	for _, kv := range opts {
		return fmt.Errorf("iocore backend: unknown option %q", kv.Key)
	}
	return nil
}

func (ioBackend) NewEngine(spec backend.LaunchSpec) (backend.Engine, error) {
	if spec.Width > MaxWidth {
		return nil, fmt.Errorf("iocore backend: port width %d exceeds the maximum %d", spec.Width, MaxWidth)
	}
	c, err := iocore.New(spec.Def, spec.Trips, spec.In, spec.Out, spec.Random, spec.Meter)
	if err != nil {
		return nil, err
	}
	c.Width = spec.Width
	c.ClockDiv = int64(engine.Div(spec.GHz))
	c.StallHist = spec.Metrics.Histogram("iocore/stall_lat")
	return &ioEngine{c: c, id: spec.Def.ID}, nil
}

// ioEngine adapts *iocore.Core to the backend.Engine contract.
type ioEngine struct {
	c  *iocore.Core
	id int
}

func (e *ioEngine) Step(now int64) bool       { return e.c.Step(now) }
func (e *ioEngine) Done() bool                { return e.c.Done() }
func (e *ioEngine) NextEvent(now int64) int64 { return e.c.NextEvent(now) }
func (e *ioEngine) Latch() *engine.Latch      { return e.c.Latch() }
func (e *ioEngine) SetReg(r int, v float64)   { e.c.SetReg(r, v) }
func (e *ioEngine) Reg(r int) float64         { return e.c.Reg(r) }
func (e *ioEngine) Ops() int64                { return e.c.Ops }

func (e *ioEngine) AttachTrace(tr *trace.Tracer, off int64) {
	e.c.Trace = tr.Component(fmt.Sprintf("core:%d", e.id)).At(off)
}

func (e *ioEngine) AddProfile(p *profile.Profiler, r *profile.Region) {
	label := fmt.Sprintf("core:%d", e.id)
	pc := p.Component("core", label)
	pc.AddBusy(e.c.BusyBaseCycles())
	pc.AddStall(e.c.StallBaseCycles())
	pc.AddEvents(e.c.Ops)
	r.AddComponent(label, e.c.BusyBaseCycles()+e.c.StallBaseCycles())
}
