package exp

import (
	"context"
	"maps"

	"distda/internal/artifact"
	"distda/internal/compiler"
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
	// Annotate, when non-nil, attaches hand-written offload regions to the
	// compiled artifact before the run (the §VI-D "U" rows of Table V). It
	// edits a private copy: cached artifacts are shared and read-only.
	Annotate func(*compiler.Compiled) error
}

// RunCell runs c on data (consumed) under ctx, which cancels the
// simulation at its next loop boundary. It strip-mines the kernel for
// c.Threads, compiles it through cache, fetches the bytecode program for
// validation from the same cache, and simulates on sr's machine (nil: a
// machine built for this cell alone). A worker that runs cell after cell
// owns one sim.Runner and passes it every time. spans, when non-nil,
// records the "compile" and "simulate" stages.
func RunCell(ctx context.Context, cache *artifact.Cache, sr *sim.Runner, c Cell, data map[string][]float64, spans *obs.SpanList) (*sim.Result, error) {
	cfg := c.Cfg
	cfg.Threads = c.Threads
	cfg.Cancel = ctx.Done()
	k := sim.ThreadKernel(c.W.Kernel, c.Threads)
	scale := c.Scale.String()
	var compiled *compiler.Compiled
	if cfg.HasAccel() {
		h := spans.Open("compile")
		copts := sim.CompileOptions(cfg)
		var err error
		compiled, err = cache.GetOrCompile(artifact.Key(c.W.Name, scale, k, copts), k, func() (*compiler.Compiled, error) {
			return compiler.Compile(k, copts)
		})
		if err == nil && c.Annotate != nil {
			// Annotations only re-map loops to regions, so a private
			// ByLoop index keeps the cached artifact untouched.
			own := *compiled
			own.ByLoop = maps.Clone(compiled.ByLoop)
			compiled = &own
			err = c.Annotate(compiled)
		}
		spans.Close(h)
		if err != nil {
			return nil, err
		}
	}
	if cfg.ValidateEvery {
		prog, err := cache.GetOrProgram(artifact.ProgramKey(c.W.Name, scale, k), k)
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
