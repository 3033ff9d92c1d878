package sim

import (
	"errors"
	"fmt"
	"strings"

	"distda/internal/backend"
	"distda/internal/backend/all"
	"distda/internal/ir"
)

// ErrCanceled is returned (wrapped) by Run and friends when the run was
// interrupted through Config.Cancel before completion. Callers distinguish
// it from simulation errors with errors.Is; the experiment runner maps it to
// a degraded ("n/a") cell instead of aborting the whole matrix.
var ErrCanceled = errors.New("sim: run canceled")

// Option mutates a Config under construction. Options compose left to
// right; the last write to a field wins. Use NewConfig (or MustConfig) to
// apply them — both validate the final configuration, which is how nonsense
// combinations (Centralized+Distribute, out-of-range clocks, ...) are
// rejected at construction time instead of deep inside the simulator.
type Option func(*Config)

// NewConfig builds a configuration from a base constructor plus options and
// validates it:
//
//	cfg, err := sim.NewConfig(sim.DistDAIO,
//	        sim.WithBufElems(256),
//	        sim.WithValidation(true))
//
// Any named constructor (OoO, MonoCA, DistDAF, ...) or Base itself can seed
// the build. A nil option is ignored.
func NewConfig(base func() Config, opts ...Option) (Config, error) {
	c := base()
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	if err := c.Validate(); err != nil {
		var zero Config
		return zero, err
	}
	return c, nil
}

// MustConfig is NewConfig panicking on validation errors. It is meant for
// statically known-good combinations (the named constructors use it).
func MustConfig(base func() Config, opts ...Option) Config {
	c, err := NewConfig(base, opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// Validate rejects configurations that no assembled machine can honor. The
// named constructors always validate; hand-tuned configurations should be
// built with NewConfig so mistakes surface before a simulation starts.
func (c Config) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("sim: config %q: "+format, append([]any{c.Name}, args...)...)
	}
	if c.Name == "" {
		return errors.New("sim: config has no name")
	}
	if c.Centralized && c.Distribute {
		return fail("Centralized (Mono-CA) and Distribute (Dist-DA) are mutually exclusive")
	}
	if !c.HasAccel() {
		if c.Distribute {
			return fail("Distribute requires an accelerator backend")
		}
		if c.Centralized {
			return fail("Centralized accesses require an accelerator backend")
		}
		if c.AccelGHz != 0 {
			return fail("AccelGHz %d set without an accelerator backend", c.AccelGHz)
		}
		if len(c.BackendOpts) > 0 {
			return fail("backend options set without an accelerator backend")
		}
	} else {
		be, ok := all.Lookup(c.Backend)
		if !ok {
			return fail("unknown accelerator backend %q (registered: %s)",
				c.Backend, strings.Join(all.Names(), ", "))
		}
		if err := be.ValidateOptions(c.BackendOpts); err != nil {
			return fail("%v", err)
		}
		if c.AccelGHz < 1 || c.AccelGHz > 3 {
			return fail("AccelGHz %d outside the modeled 1-3 GHz range", c.AccelGHz)
		}
		if c.IOWidth < 1 {
			return fail("request port width %d < 1", c.IOWidth)
		}
		if w := be.Caps().MaxPortWidth; c.IOWidth > w {
			return fail("request port width %d exceeds backend %q maximum %d", c.IOWidth, c.Backend, w)
		}
	}
	if c.Centralized && c.Backend != "iocore" {
		return fail("Mono-CA centralized accesses are modeled on the in-order backend only")
	}
	if c.BufElems <= 0 {
		return fail("BufElems %d must be positive", c.BufElems)
	}
	if c.MaxEngine <= 0 {
		return fail("MaxEngine %d must be positive", c.MaxEngine)
	}
	if c.PrivCacheKB < 0 {
		return fail("PrivCacheKB %d negative", c.PrivCacheKB)
	}
	if c.Threads < 0 {
		return fail("Threads %d negative", c.Threads)
	}
	if c.OffChip && c.OffChipThreshold <= 0 {
		return fail("OffChip placement with non-positive threshold %d", c.OffChipThreshold)
	}
	return nil
}

// WithName replaces the configuration's display name.
func WithName(name string) Option { return func(c *Config) { c.Name = name } }

// WithBackend selects the registered accelerator backend executing
// offloaded regions, plus any backend-scoped options:
//
//	sim.WithBackend("cgra", backend.Opt("grid", "5x5"))
//
// It replaces any backend options set so far. An empty name restores the
// accelerator-free OoO baseline.
func WithBackend(name string, opts ...backend.Option) Option {
	return func(c *Config) {
		c.Backend = name
		c.BackendOpts = backend.Options(opts)
	}
}

// WithDistribute toggles distributed computation (Dist-DA).
func WithDistribute(on bool) Option { return func(c *Config) { c.Distribute = on } }

// WithCentralized toggles Mono-CA centralized accesses.
func WithCentralized(on bool) Option { return func(c *Config) { c.Centralized = on } }

// WithAccelGHz sets the accelerator clock (modeled range 1-3).
func WithAccelGHz(ghz int) Option { return func(c *Config) { c.AccelGHz = ghz } }

// WithBufElems sets the per-buffer decoupling window, in elements.
func WithBufElems(n int) Option { return func(c *Config) { c.BufElems = n } }

// WithCombining toggles Fig. 2d runtime combining.
func WithCombining(on bool) Option { return func(c *Config) { c.Combining = on } }

// WithHostPrefetch toggles the host L2 stride prefetcher.
func WithHostPrefetch(on bool) Option { return func(c *Config) { c.HostPrefetch = on } }

// WithIOWidth sets the in-order issue width (Fig. 14 +SW uses 4).
func WithIOWidth(w int) Option { return func(c *Config) { c.IOWidth = w } }

// WithSWPrefetch toggles software prefetch for accelerator random loads.
func WithSWPrefetch(on bool) Option { return func(c *Config) { c.SWPrefetch = on } }

// WithAllocSpread toggles Fig. 14 +A allocation customization.
func WithAllocSpread(on bool) Option { return func(c *Config) { c.AllocSpread = on } }

// WithoutStreamSpecialization lowers affine accesses as random accesses
// (§VI-D multithreading case study).
func WithoutStreamSpecialization() Option { return func(c *Config) { c.NoStreams = true } }

// WithoutEpilogueFold keeps epilogue stores on the host (Dist-DA-B).
func WithoutEpilogueFold() Option { return func(c *Config) { c.NoFolding = true } }

// WithOffChip enables §VII off-chip placement for objects larger than
// threshold bytes.
func WithOffChip(threshold int) Option {
	return func(c *Config) {
		c.OffChip = true
		c.OffChipThreshold = threshold
	}
}

// WithPrivCacheKB sets the Mono-CA private cache size (0 = none).
func WithPrivCacheKB(kb int) Option { return func(c *Config) { c.PrivCacheKB = kb } }

// WithoutObjConstraint drops the ≤1-object-per-partition preference
// (ablation).
func WithoutObjConstraint() Option { return func(c *Config) { c.NoObjConstr = true } }

// WithPlaceAtHost ignores placement hints, keeping accelerators at the host
// tile (ablation).
func WithPlaceAtHost() Option { return func(c *Config) { c.PlaceAtHost = true } }

// WithValidation toggles the per-run comparison against the reference
// bytecode program's output on the run's input (see RunReference).
func WithValidation(on bool) Option { return func(c *Config) { c.ValidateEvery = on } }

// WithProgram supplies a pre-compiled bytecode program for reference
// validation, typically fetched from the artifact cache. A nil or
// mismatched program is ignored (the run compiles its own).
func WithProgram(p *ir.Program) Option { return func(c *Config) { c.Program = p } }

// WithCancel attaches a cancellation channel: when it closes, the run stops
// at the next host loop boundary and returns an error wrapping ErrCanceled.
// This is how the experiment runner enforces per-cell deadlines
// (context.Context.Done plugs in directly).
func WithCancel(done <-chan struct{}) Option { return func(c *Config) { c.Cancel = done } }
