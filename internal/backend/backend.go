// Package backend formalizes the paper's accelerator-agnostic offload
// interface as a pluggable contract. An accelerator backend consumes
// decoupled request/response channels — the access-unit buffers with their
// valid/ready handshake (CanPop/Pop, CanPush/Push, Close) — plus a random
// access port and a scalar register file, and turns one compiled
// accelerator definition into a clocked engine component. The simulator
// assembly (internal/sim) talks only to this interface; the in-order core
// (iocore), the CGRA fabric (cgra) and the PIM-in-DRAM engine (pimdram)
// are registered implementations behind it.
package backend

import (
	"fmt"
	"sort"
	"strings"

	"distda/internal/accessunit"
	"distda/internal/core"
	"distda/internal/energy"
	"distda/internal/engine"
	"distda/internal/profile"
	"distda/internal/trace"
)

// Caps is a backend's capability descriptor, consulted for placement and
// compilation decisions instead of backend-name switches.
type Caps struct {
	// MaxPortWidth is the widest request port (micro-ops issued per cycle)
	// the backend accepts; LaunchSpec.Width beyond it is rejected.
	MaxPortWidth int
	// NearData: engines execute at the NUCA cluster owning their data
	// (the paper's near-L3 placement).
	NearData bool
	// InDRAM: engines execute at the DRAM channel (the memory-controller
	// node); resident data never traverses the on-chip NoC.
	InDRAM bool
	// RandomAccess: the backend serves cp_read/cp_write random accesses.
	RandomAccess bool
}

// Options is backend-scoped configuration: an ordered key=value list. It
// replaces backend-specific fields in the top-level sim config (the CGRA
// grid shape, for example, is Opt("grid", "5x5")). The canonical String
// form feeds config names and content-addressed cache keys, so options
// must stay deterministic value types.
type Options []Option

// Option is one backend-scoped key=value setting.
type Option struct {
	Key   string
	Value string
}

// Opt builds a single backend option.
func Opt(key, value string) Option { return Option{Key: key, Value: value} }

// Get returns the last value set for key.
func (o Options) Get(key string) (string, bool) {
	for i := len(o) - 1; i >= 0; i-- {
		if o[i].Key == key {
			return o[i].Value, true
		}
	}
	return "", false
}

// String renders the canonical "k=v,k=v" form, keys sorted, later
// duplicates winning.
func (o Options) String() string {
	m := map[string]string{}
	for _, kv := range o {
		m[kv.Key] = kv.Value
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", k, m[k])
	}
	return b.String()
}

// LaunchSpec carries everything a backend needs to instantiate one engine
// for one accelerator definition of an offload launch. The ports embody
// the valid/ready protocol: an engine may consume only when CanPop reports
// valid data, produce only when CanPush reports a ready slot, and must
// Close its output buffers on completion.
type LaunchSpec struct {
	Def   *core.AccelDef
	Trips int64 // orchestrator count; < 0 selects while-input

	// In / Out are the request/response stream endpoints indexed by access
	// id; unwired accesses hold nil (see accessunit.PortsByID). The engine
	// may keep the slices for its lifetime.
	In  []*accessunit.InPort
	Out []*accessunit.OutPort
	// Random serves cp_read / cp_write accesses (nil when the program has
	// none).
	Random *accessunit.RandomPort

	GHz   int // engine clock in GHz (engine.Div derives the base divisor)
	Width int // request port width: micro-ops issued per engine cycle

	Meter   *energy.Meter // energy accounting (may be nil)
	LatHist *profile.Hist // the engine's latency histogram (nil: not profiling)
	Opts    Options       // backend-scoped configuration

	// Memo is the run's store for launch-invariant derivations (nil: none).
	Memo *Memo
}

// Memo holds what a backend derives from an accelerator definition alone —
// the CGRA modulo schedule, for example — so that a run launching one
// definition thousands of times derives it once. A simulator run owns one
// Memo and passes it with every launch; entries die with the run. Keying
// by *core.AccelDef is therefore safe: within one run a definition pointer
// always names the same definition, which a process-wide cache could not
// promise once a freed definition's address is reused. Keys must be
// comparable; a backend wraps the definition pointer in a key type of its
// own so backends never collide. Memo is not safe for concurrent use: a
// run assembles its launches serially. A nil *Memo stores nothing.
type Memo struct {
	m map[any]any
}

// Load returns the value stored under key.
func (c *Memo) Load(key any) (any, bool) {
	if c == nil {
		return nil, false
	}
	v, ok := c.m[key]
	return v, ok
}

// Store sets the value for key.
func (c *Memo) Store(key, v any) {
	if c == nil {
		return
	}
	if c.m == nil {
		c.m = map[any]any{}
	}
	c.m[key] = v
}

// validKey is the memo key of a definition whose micro-program validated.
type validKey struct{ def *core.AccelDef }

// ValidProgram checks def's micro-program against its accesses
// (microcode.Program.Validate) on the definition's first launch of the run
// and remembers that it passed, so later launches skip the check. A nil
// *Memo checks every time.
func (c *Memo) ValidProgram(def *core.AccelDef) error {
	key := validKey{def}
	if _, ok := c.Load(key); ok {
		return nil
	}
	if err := def.Program.Validate(len(def.Accesses)); err != nil {
		return err
	}
	c.Store(key, nil)
	return nil
}

// Engine is one running accelerator instance: a clocked component with the
// engine scheduler's Step/Done/NextEvent/Latch contract plus the scalar register
// file (cp_set_rf / cp_load_rf) and observability attachment points. The
// Attach/Add methods are observational only — results must be bit-identical
// with or without them. A backend's executor implements Engine itself, so
// the simulator registers it with the scheduler directly and no forwarding
// layer sits on the per-step path.
type Engine interface {
	Step(now int64) bool
	Done() bool
	// NextEvent and Latch are the engine scheduler's wake-driven hint
	// (engine.Hinter): the engine trusts a claim until the latch is woken,
	// so an engine subscribes its latch to every wired port buffer.
	// Backends that cannot predict return 0 from NextEvent to be polled. A
	// finished engine claims engine.Finished, which is how the scheduler
	// learns of its completion.
	engine.Hinter

	// Reset re-arms the engine for another launch while keeping its
	// storage: afterwards it is indistinguishable from what the backend's
	// NewEngine(spec) returns — registers, counters, latch, trace scope and
	// histogram included — and it fails exactly when NewEngine(spec) would.
	// The engine must not be registered with a running scheduler.
	Reset(spec LaunchSpec) error
	// Release drops every reference the engine holds to its launch — the
	// definition, ports, meter, histogram and trace scope — while keeping
	// its storage, so an engine pool that outlives a simulator run keeps
	// nothing of the run reachable. A released engine is only ever Reset.
	Release()

	SetReg(r int, v float64)
	Reg(r int) float64

	// Ops returns retired micro-operations (the accelerator dynamic
	// instruction count) since the engine was built or last Reset.
	Ops() int64

	// AttachTrace binds the engine's trace scope at the launch's base-cycle
	// offset on the run-global timeline.
	AttachTrace(tr *trace.Tracer, off int64)
	// AddProfile folds the engine's cycle/energy attribution into the
	// profiler and the launch's region after the run.
	AddProfile(p *profile.Profiler, r *profile.Region)
}

// Backend turns compiled accelerator definitions into engines.
type Backend interface {
	// Name is the registry key ("iocore", "cgra", "pimdram", ...).
	Name() string
	Caps() Caps
	// ValidateOptions rejects unknown or malformed backend-scoped options
	// at config construction time.
	ValidateOptions(opts Options) error
	// NewEngine instantiates one engine for one accelerator definition.
	// Engine.Reset re-arms an engine it built for another launch.
	NewEngine(spec LaunchSpec) (Engine, error)
}
