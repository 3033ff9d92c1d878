package sim

import (
	"fmt"

	"distda/internal/compiler"
	"distda/internal/ir"
)

// Run executes kernel k with the given parameters and input data under one
// configuration. data is consumed (mutated); pass a fresh generation per
// run. The result is validated against the reference interpreter when the
// config requests it.
func Run(k *ir.Kernel, params map[string]float64, data map[string][]float64, cfg Config) (*Result, error) {
	return RunAnnotated(k, params, data, cfg, nil)
}

// RunAnnotated is Run with a user-annotation hook: after compilation the
// hook may attach hand-written offload regions to loops (the §VI-D
// "U"-marked rows of Table V), overriding or extending the automated
// mapping.
func RunAnnotated(k *ir.Kernel, params map[string]float64, data map[string][]float64, cfg Config,
	annotate func(*compiler.Compiled) error) (*Result, error) {
	var compiled *compiler.Compiled
	if cfg.HasAccel() {
		var err error
		compiled, err = Compiled(k, cfg)
		if err != nil {
			return nil, err
		}
		if annotate != nil {
			if err := annotate(compiled); err != nil {
				return nil, err
			}
		}
	}
	return RunPrecompiled(k, params, data, cfg, compiled)
}

// RunPrecompiled is Run with a previously compiled artifact, which must
// have been produced by Compiled(k, cfg) (or by an equivalent
// compiler.Compile of the same kernel with CompileOptions(cfg)). The
// simulator only reads the artifact, so one compilation may be shared
// across concurrent runs of configurations with the same compiler
// options — the experiment matrix memoizes on this. compiled is ignored
// for backend-less (OoO) configs. It builds a machine for this run alone;
// a Runner reuses one across runs.
func RunPrecompiled(k *ir.Kernel, params map[string]float64, data map[string][]float64, cfg Config,
	compiled *compiler.Compiled) (*Result, error) {
	return new(Runner).RunPrecompiled(k, params, data, cfg, compiled)
}

// Runner runs simulations one after another on one simulated machine,
// resetting it between runs instead of building the Table III system
// afresh: the cache arrays, mesh, DRAM, meter, scheduler and launch pools
// keep their storage. When a run returns — completed, failed, canceled or
// out of engine budget — the machine holds no reference to it (kernel,
// inputs, compiled artifact, tracer, profiler), and the Result it
// returned shares no storage with the machine. Results are identical to
// a fresh machine's. A Runner is not safe for concurrent use; the zero
// value is ready to use.
type Runner struct {
	m *machine
}

// RunPrecompiled is the package-level RunPrecompiled on r's machine.
func (r *Runner) RunPrecompiled(k *ir.Kernel, params map[string]float64, data map[string][]float64, cfg Config,
	compiled *compiler.Compiled) (*Result, error) {
	m := r.m
	if m == nil {
		m = newMachine()
	}
	// The run holds the machine until it returns: a panic escaping it
	// leaves r without one, and the next run builds a fresh machine.
	r.m = nil
	res, err := m.run(k, params, data, cfg, compiled)
	m.release()
	r.m = m
	return res, err
}

// run simulates one run on m, attaching it through reset.
func (m *machine) run(k *ir.Kernel, params map[string]float64, data map[string][]float64, cfg Config,
	compiled *compiler.Compiled) (*Result, error) {
	if !cfg.HasAccel() {
		compiled = nil
	}
	var refData map[string][]float64
	if cfg.ValidateEvery {
		refData = copyData(data)
	}
	if err := m.reset(cfg, k, params, data); err != nil {
		return nil, err
	}
	h := newHost(m, compiled)
	if err := h.run(); err != nil {
		return nil, err
	}
	validated := false
	if cfg.ValidateEvery {
		// The reference run executes compiled bytecode rather than walking
		// the kernel tree; results are bit-identical (the ir differential
		// tests enforce it) and the hot validation path gets ~2x cheaper.
		prog := cfg.Program
		if prog == nil || prog.Kernel() != k {
			var perr error
			if prog, perr = ir.NewProgram(k); perr != nil {
				return nil, fmt.Errorf("sim: reference run: %w", perr)
			}
		}
		if _, err := prog.Run(params, refData, nil); err != nil {
			return nil, fmt.Errorf("sim: reference run: %w", err)
		}
		if err := compareData(data, refData); err != nil {
			return nil, fmt.Errorf("sim: %s on %s: %w", k.Name, cfg.Name, err)
		}
		validated = true
	}
	return m.collect(k.Name, validated), nil
}

// CompileOptions returns the compiler options a config implies. Configs
// mapping to equal options compile identically, which the experiment
// matrix exploits to memoize compilation across configurations.
func CompileOptions(cfg Config) compiler.Options {
	return compiler.Options{
		Mode:                   cfg.CompilerMode,
		NoObjConstraint:        cfg.NoObjConstr,
		NoStreamSpecialization: cfg.NoStreams,
		NoEpilogueFold:         cfg.NoFolding,
	}
}

// Compiled exposes the compilation a config would use (for reports).
func Compiled(k *ir.Kernel, cfg Config) (*compiler.Compiled, error) {
	return compiler.Compile(k, CompileOptions(cfg))
}

func copyData(data map[string][]float64) map[string][]float64 {
	out := make(map[string][]float64, len(data))
	for k, v := range data {
		c := make([]float64, len(v))
		copy(c, v)
		out[k] = c
	}
	return out
}

// RunThreads executes the kernel with its parallel-annotated loops chunked
// across the given number of software threads (§VI-D): chunks run over
// shared functional memory while the cycle account keeps only the slowest
// chunk per parallel-loop instance plus a barrier. A parallel loop that is
// itself innermost (bfs-mt's edge scan) is first strip-mined so each thread
// gets its own offloadable chunk loop.
func RunThreads(k *ir.Kernel, params map[string]float64, data map[string][]float64, cfg Config, threads int) (*Result, error) {
	cfg.Threads = threads
	return Run(ThreadKernel(k, threads), params, data, cfg)
}

// ThreadKernel returns the kernel RunThreads would execute with the given
// software thread count: for threads > 1 every parallel innermost loop is
// strip-mined into per-thread chunk loops (see stripMineParallelInnermost).
// Callers that compile through a content-addressed cache key on this kernel
// so thread variants hash distinctly.
func ThreadKernel(k *ir.Kernel, threads int) *ir.Kernel {
	if threads > 1 {
		return stripMineParallelInnermost(k, threads)
	}
	return k
}

// stripMineParallelInnermost rewrites every parallel innermost loop
//
//	parfor i = lo..hi { body }
//
// into
//
//	parfor __t = 0..T { for i = lo+__t*ch .. min(hi, lo+(__t+1)*ch) { body } }
//
// so the host's thread chunking operates on __t while each chunk's inner
// loop remains a compilable offload region.
func stripMineParallelInnermost(k *ir.Kernel, threads int) *ir.Kernel {
	inner := map[*ir.For]bool{}
	for _, f := range ir.InnermostLoops(k.Body) {
		if f.Parallel {
			inner[f] = true
		}
	}
	if len(inner) == 0 {
		return k
	}
	t := float64(threads)
	var rewrite func(ss []ir.Stmt) []ir.Stmt
	rewrite = func(ss []ir.Stmt) []ir.Stmt {
		out := make([]ir.Stmt, len(ss))
		for i, s := range ss {
			switch x := s.(type) {
			case *ir.For:
				if inner[x] {
					// chunk size ceil((hi-lo)/T) as an expression.
					span := ir.SubE(x.Hi, x.Lo)
					ch := ir.FloorE(ir.DivE(ir.AddE(span, ir.C(t-1)), ir.C(t)))
					lo := ir.AddE(x.Lo, ir.MulE(ir.V("__t"), ch))
					hi := ir.MinE(x.Hi, ir.AddE(x.Lo, ir.MulE(ir.AddE(ir.V("__t"), ir.C(1)), ch)))
					innerLoop := &ir.For{IV: x.IV, Lo: lo, Hi: hi, Step: x.Step, Body: x.Body}
					out[i] = &ir.For{IV: "__t", Lo: ir.C(0), Hi: ir.C(t), Step: ir.C(1),
						Parallel: true, Body: []ir.Stmt{innerLoop}}
					continue
				}
				out[i] = &ir.For{IV: x.IV, Lo: x.Lo, Hi: x.Hi, Step: x.Step,
					Parallel: x.Parallel, Body: rewrite(x.Body)}
			case ir.If:
				out[i] = ir.If{Cond: x.Cond, Then: rewrite(x.Then), Else: rewrite(x.Else)}
			default:
				out[i] = s
			}
		}
		return out
	}
	return &ir.Kernel{Name: k.Name, Params: k.Params, Objects: k.Objects, Body: rewrite(k.Body)}
}
