// Package sim assembles the full system of Table III and executes kernels
// under the paper's tested configurations (§VI-A): an OoO host baseline, a
// monolithic accelerator with centralized accesses (Mono-CA), monolithic
// compute with decentralized accesses (Mono-DA-IO/-F), and distributed
// compute with decentralized accesses (Dist-DA-IO/-F). Offloaded regions
// execute functionally inside the cycle engine and results are validated
// against the reference interpreter.
package sim

import (
	"distda/internal/backend"
	"distda/internal/compiler"
	"distda/internal/engine"
	"distda/internal/ir"
	"distda/internal/profile"
	"distda/internal/trace"

	// Every in-tree accelerator backend registers itself; importing the
	// aggregate here guarantees registration precedes any config validation.
	_ "distda/internal/backend/all"
)

// Config describes one tested configuration.
type Config struct {
	Name string
	// Backend names the registered accelerator backend ("iocore", "cgra",
	// "pimdram") executing offloaded regions; empty means no accelerators
	// (the OoO baseline). BackendOpts carries backend-scoped configuration —
	// the CGRA grid shape, for example, is backend.Opt("grid", "5x5") rather
	// than a top-level field.
	Backend     string
	BackendOpts backend.Options
	Distribute  bool // distributed computation (Dist-DA) vs monolithic
	Centralized bool // Mono-CA: access units centralized at the accel node
	AccelGHz    int  // accelerator clock (Table III: IO 2 GHz, CGRA 1 GHz)

	BufElems     int  // per-buffer decoupling window, in elements
	Combining    bool // Fig. 2d runtime combining
	HostPrefetch bool // host L2 stride prefetcher

	IOWidth     int  // in-order issue width (Fig. 14 +SW uses 4)
	SWPrefetch  bool // software prefetch for accel random loads (Fig. 14)
	AllocSpread bool // allocation customization (Fig. 14 +A)
	NoStreams   bool // skip stream specialization (§VI-D multithreading)
	NoFolding   bool // keep epilogue stores on the host (Dist-DA-B)

	// OffChip enables the §VII extension: partitions anchored at objects
	// larger than OffChipThreshold bytes are placed at the memory
	// controller and access DRAM directly, bypassing the on-chip L3 path.
	OffChip          bool
	OffChipThreshold int

	CompilerMode  compiler.Mode
	MaxEngine     int64 // engine budget per launch, base cycles
	PrivCacheKB   int   // Mono-CA private cache size (0 = none)
	NoObjConstr   bool  // ablation: drop ≤1-object preference
	PlaceAtHost   bool  // ablation: ignore placement hints, keep accels at the host tile
	Threads       int   // software threads for parallel-annotated loops
	ValidateEvery bool  // compare against the interpreter after Run

	// Trace, when non-nil, receives cycle-accurate span/instant events from
	// the host timeline, the engine scheduler and every assembled component
	// (fill/drain FSMs, cores, fabrics). Timestamps are engine base cycles
	// on the run-global clock; export with Tracer.WriteChromeJSON. Tracing
	// is observational only: cycle counts and results are bit-identical
	// with it on or off (the differential tests enforce this).
	Trace *trace.Tracer

	// Profile, when non-nil, receives the run's cycle and energy attribution
	// (per-component busy/stall, per-region offload latency phases,
	// queue-occupancy and latency histograms, additive counters). Like
	// tracing, profiling is observational only: cycle counts and results
	// are bit-identical with it on or off.
	// Profilers from parallel runs fold together with Profiler.Merge.
	Profile *profile.Profiler

	// engineMode selects the engine scheduling strategy for every offload
	// launch: adaptive (the zero value, and the only one a caller outside
	// this package can select) or the naive one-tick-at-a-time reference
	// that this package's differential tests compare it against.
	engineMode engine.Mode

	// Program, when non-nil and compiled from this run's kernel, is the
	// bytecode program used for reference validation (ValidateEvery)
	// instead of compiling one on the fly. Populated by the experiment
	// matrix from the artifact cache; runs with a nil or mismatched
	// Program compile one with ir.NewProgram (microseconds per kernel).
	Program *ir.Program

	// Cancel, when non-nil, interrupts the run when closed: the host stops
	// at the next loop boundary and Run returns an error wrapping
	// ErrCanceled. Wire a context's Done channel here (WithCancel) to give
	// a simulation a deadline. Cancellation is observational until it
	// fires: a run that completes without Cancel closing is bit-identical
	// to one with Cancel nil.
	Cancel <-chan struct{}
}

// Base is the shared substrate-independent default configuration every
// named constructor starts from. It is not directly runnable (it has no
// name); seed NewConfig with it to build fully custom configurations.
func Base() Config {
	var c Config
	c.BufElems = 128
	c.Combining = true
	c.HostPrefetch = true
	c.IOWidth = 1
	c.MaxEngine = 1 << 34
	c.ValidateEvery = true
	return c
}

// HasAccel reports whether the configuration offloads to an accelerator
// backend at all (false only for the OoO host baseline).
func (c Config) HasAccel() bool { return c.Backend != "" }

// OoO is the out-of-order host baseline (①).
func OoO() Config {
	return MustConfig(Base, WithName("OoO"))
}

// MonoCA is the monolithic accelerator on the L3 bus with centralized,
// stream-specialized accesses and an 8 KB private cache (②).
func MonoCA() Config {
	return MustConfig(Base,
		WithName("Mono-CA"),
		WithBackend("iocore"),
		WithAccelGHz(2),
		WithCentralized(true),
		WithCompilerMode(compiler.ModeMono),
		WithPrivCacheKB(8))
}

// MonoDAIO is monolithic compute with decentralized accesses on an in-order
// core at 2 GHz (③).
func MonoDAIO() Config {
	return MustConfig(Base,
		WithName("Mono-DA-IO"),
		WithBackend("iocore"),
		WithAccelGHz(2),
		WithCompilerMode(compiler.ModeMono))
}

// MonoDAF is monolithic compute with decentralized accesses on an 8x8 CGRA
// at 1 GHz (④).
func MonoDAF() Config {
	return MustConfig(Base,
		WithName("Mono-DA-F"),
		WithBackend("cgra", backend.Opt("grid", "8x8")),
		WithAccelGHz(1),
		WithCompilerMode(compiler.ModeMono))
}

// DistDAIO is distributed compute + decentralized accesses on in-order
// cores at 2 GHz (⑤).
func DistDAIO() Config {
	return MustConfig(Base,
		WithName("Dist-DA-IO"),
		WithBackend("iocore"),
		WithAccelGHz(2),
		WithDistribute(true),
		WithCompilerMode(compiler.ModeDist))
}

// DistDAF is distributed compute + decentralized accesses on 5x5 CGRA
// tiles at 1 GHz (⑥).
func DistDAF() Config {
	return MustConfig(Base,
		WithName("Dist-DA-F"),
		WithBackend("cgra", backend.Opt("grid", "5x5")),
		WithAccelGHz(1),
		WithDistribute(true),
		WithCompilerMode(compiler.ModeDist))
}

// DistDAIOSW is Fig. 14's Dist-DA-IO+SW: issue width 4 plus software
// prefetching in the offloaded code.
func DistDAIOSW() Config {
	return MustConfig(DistDAIO,
		WithName("Dist-DA-IO+SW"),
		WithIOWidth(4),
		WithSWPrefetch(true))
}

// DistDAFA is Fig. 14's Dist-DA-F+A: manually customized data-structure
// allocation for intra-cluster locality.
func DistDAFA() Config {
	return MustConfig(DistDAF,
		WithName("Dist-DA-F+A"),
		WithAllocSpread(true))
}

// WithClock returns the config with the accelerator clock replaced
// (clocking sensitivity, Fig. 13).
func (c Config) WithClock(ghz int) Config {
	c.AccelGHz = ghz
	c.Name = c.Name + nameGHz(ghz)
	return c
}

func nameGHz(ghz int) string {
	switch ghz {
	case 1:
		return "@1GHz"
	case 2:
		return "@2GHz"
	case 3:
		return "@3GHz"
	default:
		return "@?"
	}
}

// DistDAOffChip is the §VII "extending the interface to off-chip data
// residence" extension: Dist-DA-IO plus near-memory placement for
// DRAM-resident objects.
func DistDAOffChip() Config {
	return MustConfig(DistDAIO,
		WithName("Dist-DA-OffChip"),
		WithOffChip(1<<20))
}

// DistDAPIM is the PIM-in-DRAM configuration: distributed offload lowering
// as in Dist-DA-IO, but every region executes on bank-level compute units
// at the DRAM channel (1 GHz engine clock, channel-bandwidth-bound issue,
// no NoC traversal for resident data).
func DistDAPIM() Config {
	return MustConfig(DistDAIO,
		WithName("Dist-DA-PIM"),
		WithBackend("pimdram"),
		WithAccelGHz(1))
}

// AllPaperConfigs returns the six configurations of §VI-A in paper order.
func AllPaperConfigs() []Config {
	return []Config{OoO(), MonoCA(), MonoDAIO(), MonoDAF(), DistDAIO(), DistDAF()}
}
