package exp

import (
	"context"

	"distda/internal/artifact"
	"distda/internal/compiler"
	"distda/internal/ir"
	"distda/internal/obs"
	"distda/internal/sim"
	"distda/internal/workloads"
)

// Cell is one simulation: a workload instance run under one
// configuration, optionally across software threads or with a
// hand-written offload annotation. Every simulation distda runs — a
// matrix cell, a figure cell, a served run job, distda-run — is a Cell run
// by RunCell.
type Cell struct {
	W *workloads.Workload
	// Scale is the scale W was built at; it is part of the compile and
	// program cache keys.
	Scale workloads.Scale
	Cfg   sim.Config
	// Threads is the software thread count for parallel-annotated loops;
	// above 1 it strip-mines W's parallel innermost loops (§VI-D).
	Threads int
	// Text, when non-empty, is ir.Format(W.Kernel). RunCell keys the
	// compile and program caches on it instead of formatting the kernel
	// again (a strip-mined thread variant is still formatted).
	Text string
	// Annotate, when non-nil, attaches hand-written offload regions to the
	// compiled artifact before the run (the §VI-D "U" rows of Table V). It
	// edits a private copy: cached artifacts are shared and read-only.
	Annotate func(*compiler.Compiled) error
	// Reference, when non-nil, returns the reference program's output on
	// this cell's input data for W.Kernel under W.Params (a memo: the
	// job server keeps one per built-in). A validating run compares
	// against it instead of running the reference program. RunCell calls
	// it only when the run's kernel is W.Kernel; a kernel strip-mined for
	// Threads runs its own reference. Its error fails the cell.
	Reference func() (map[string][]float64, error)
}

// RunCell runs c on data (consumed) under ctx, which cancels the
// simulation at its next loop boundary. It strip-mines the kernel for
// c.Threads, compiles it through cache, fetches the bytecode program for
// validation (and, on the OoO baseline, for the host to run) from the
// same cache unless c.Reference supplies the reference output, and
// simulates on sr's machine (nil: a machine built for this cell alone).
// A worker that runs cell after cell owns one sim.Runner and passes it
// every time. spans, when non-nil, records the "compile" and "simulate"
// stages.
func RunCell(ctx context.Context, cache *artifact.Cache, sr *sim.Runner, c Cell, data map[string][]float64, spans *obs.SpanList) (*sim.Result, error) {
	cfg := c.Cfg
	cfg.Threads = c.Threads
	cfg.Cancel = ctx.Done()
	k := sim.ThreadKernel(c.W.Kernel, c.Threads)
	text := c.Text
	if text == "" || k != c.W.Kernel {
		text = ir.Format(k)
	}
	scale := c.Scale.String()
	var compiled *compiler.Compiled
	if cfg.HasAccel() {
		h := spans.Open("compile")
		copts := sim.CompileOptions(cfg)
		var err error
		compiled, err = cache.GetOrCompile(artifact.KeyText(c.W.Name, scale, text, copts), k, func() (*compiler.Compiled, error) {
			return compiler.Compile(k, copts)
		})
		if err == nil && c.Annotate != nil {
			compiled, err = compiled.Annotated(c.Annotate)
		}
		spans.Close(h)
		if err != nil {
			return nil, err
		}
	}
	if cfg.ValidateEvery && c.Reference != nil && k == c.W.Kernel {
		ref, err := c.Reference()
		if err != nil {
			return nil, err
		}
		cfg.Reference = ref
	}
	if compiled == nil || cfg.ValidateEvery && cfg.Reference == nil {
		prog, err := cache.GetOrProgram(artifact.ProgramKeyText(c.W.Name, scale, text), k)
		if err != nil {
			return nil, err
		}
		cfg.Program = prog
	}
	h := spans.Open("simulate")
	defer spans.Close(h)
	if sr == nil {
		sr = new(sim.Runner)
	}
	return sr.RunPrecompiled(k, c.W.Params, data, cfg, compiled)
}
