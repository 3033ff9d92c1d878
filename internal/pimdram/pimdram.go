// Package pimdram models a processing-in-memory backend in the spirit of
// DaPPA: streaming kernels execute at the DRAM channel on bank-level
// compute units. The engine runs the same compiler-generated 64-bit
// micro-programs on the in-order core's sequencer (iocore.Seq), but its
// timing model is memory-side:
//
//   - Bank-level parallelism retires a whole iteration's micro-ops in one
//     engine cycle when no channel is blocked (compute is effectively free
//     next to the arrays).
//   - Issue is channel-bandwidth bound: an iteration streaming B bytes
//     cannot initiate more often than ceil(B / ChanBytesPerCycle) engine
//     cycles — the DRAM channel, not the ALUs, is the bottleneck.
//   - Random accesses pay the raw DRAM access latency through the
//     memory-controller path; resident data never traverses the on-chip
//     NoC (the simulator places PIM engines at the memory-controller node
//     and feeds them through the direct-DRAM fetcher).
//
// Backend is the "pimdram" backend; sim configs select it with
// WithBackend("pimdram").
package pimdram

import (
	"distda/internal/backend"
	"distda/internal/energy"
	"distda/internal/iocore"
	"distda/internal/microcode"
	"distda/internal/profile"
)

// ChanBytesPerCycle is the modeled DRAM channel bandwidth per engine cycle
// at 1 GHz (≈16 GB/s, an LPDDR channel's peak).
const ChanBytesPerCycle = 16

// MaxWidth bounds the request port width; the iteration-at-a-time issue
// model makes widths beyond the per-iteration op count meaningless, so the
// cap only guards nonsense configs.
const MaxWidth = 4

// Backend is the "pimdram" accelerator backend. It takes no options.
var Backend backend.Backend = pimBackend{}

type pimBackend struct{}

func (pimBackend) Caps() backend.Caps {
	return backend.Caps{MaxPortWidth: MaxWidth, InDRAM: true}
}

func (pimBackend) ValidateOptions(opts backend.Options) error {
	return backend.NoOptions("pimdram", opts)
}

func (pimBackend) NewEngine(spec backend.LaunchSpec) (backend.Engine, error) {
	e := new(Engine)
	if err := e.Reset(spec); err != nil {
		return nil, err
	}
	return e, nil
}

// Bank-level units have no fetch/decode front end: the per-op cost is the
// in-DRAM ALU itself.
var pimSubstrate = &iocore.Substrate{Backend: "pimdram", Label: "pim", MaxWidth: MaxWidth,
	FrontPJ: func(t *energy.Table) float64 { return t.PIMOpPJ }}

// Engine executes one accelerator definition at the DRAM channel. It is
// the backend's backend.Engine.
type Engine struct {
	iocore.Seq
	// iterBytes is the static per-iteration channel traffic: the summed
	// element bytes of every stream/channel consume and produce in the
	// program (predication ignored — an upper bound is the right shape for
	// a bandwidth bottleneck).
	iterBytes int64
}

// Reset implements backend.Engine: it re-arms e for spec exactly as the
// backend's NewEngine(spec) builds an engine.
func (e *Engine) Reset(spec backend.LaunchSpec) error {
	e.iterBytes = 0
	if err := e.Arm(pimSubstrate, spec); err != nil {
		return err
	}
	for i := range spec.Def.Program {
		switch op := &spec.Def.Program[i]; op.Code {
		case microcode.Consume, microcode.Produce:
			e.iterBytes += int64(spec.Def.Accesses[op.Access].ElemBytes)
		}
	}
	return nil
}

// AddProfile folds the engine's cycle attribution into the profiler. Busy
// time is one issue cycle per iteration: bank-level units retire the
// whole iteration.
func (e *Engine) AddProfile(p *profile.Profiler, r *profile.Region) {
	e.Profile(p, r, e.Iters*e.Div())
}

// Step advances one engine clock edge: it retires micro-ops until the
// current iteration completes, a channel blocks, or a random access
// stalls. Returns whether progress was made.
func (e *Engine) Step(now int64) bool {
	if issue, progress := e.Edge(now); !issue {
		return progress
	}
	progress := false
	for start := e.Iters; e.Issue(now); {
		progress = true
		if e.Halted(now) {
			break
		}
		if e.Iters != start {
			// Iteration boundary: charge the channel-bandwidth bound. The
			// next edge is one engine cycle away already, so only the excess
			// beyond one cycle stalls.
			if bw := (e.iterBytes + ChanBytesPerCycle - 1) / ChanBytesPerCycle; bw > 1 {
				e.Stall(now, (bw-1)*e.Div())
			}
			break
		}
	}
	return progress
}
