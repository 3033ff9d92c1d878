package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"distda/internal/artifact"
	"distda/internal/cliutil"
	"distda/internal/compiler"
	"distda/internal/exp"
	"distda/internal/obs"
	"distda/internal/profile"
	"distda/internal/sim"
)

// errDegraded marks a matrix result that contains timed-out ("n/a") cells.
// Degraded output is still returned to the submitting client, but it is
// never stored in the result cache — a later identical submission should
// get the chance to compute the full table.
var errDegraded = errors.New("serve: result degraded by cell timeouts")

// runner executes planned jobs. It owns the knobs that are server policy
// rather than job identity: worker counts, cell timeouts, checkpoint
// directory. None of these feed the result key — they change
// wall-clock and fault tolerance, never the rendered bytes.
type runner struct {
	cache       *artifact.Cache
	cellWorkers int           // exp.Options.Workers for matrix jobs
	cellTimeout time.Duration // exp.Options.CellTimeout
	stateDir    string        // matrix checkpoints live here
}

// run executes the plan and returns the rendered result bytes — exactly
// the bytes the equivalent batch CLI writes to stdout. Progress is
// recorded per completed matrix cell (run jobs count as a single cell).
// A degraded matrix render is returned alongside errDegraded. spans
// records the wall-clock lifecycle stages; it never feeds the simulation,
// so the bytes are identical with or without it.
func (r *runner) run(ctx context.Context, p *plan, prog *profile.Progress, spans *obs.SpanList) ([]byte, error) {
	switch p.kind {
	case KindRun:
		return r.runOne(ctx, p, prog, spans)
	case KindMatrix:
		return r.runMatrix(ctx, p, prog, spans)
	}
	return nil, fmt.Errorf("serve: unknown plan kind %q", p.kind)
}

// runOne replicates distda-run: strip-mine for threads, compile through
// the shared content-addressed cache, simulate, render with FprintResult.
func (r *runner) runOne(ctx context.Context, p *plan, prog *profile.Progress, spans *obs.SpanList) ([]byte, error) {
	prog.SetTotal(1)
	cfg := p.cfg
	cfg.Threads = p.spec.Threads
	cfg.Cancel = ctx.Done()
	kernel := sim.ThreadKernel(p.kernel, p.spec.Threads)
	var compiled *compiler.Compiled
	if cfg.HasAccel() {
		h := spans.Open("compile")
		copts := sim.CompileOptions(cfg)
		key := artifact.Key(p.workload.Name, p.scale.String(), kernel, copts)
		var err error
		compiled, err = r.cache.GetOrCompile(key, kernel, func() (*compiler.Compiled, error) {
			return compiler.Compile(kernel, copts)
		})
		spans.Close(h)
		if err != nil {
			return nil, err
		}
	}
	start := time.Now()
	h := spans.Open("simulate")
	res, err := sim.RunPrecompiled(kernel, p.workload.Params, p.workload.NewData(), cfg, compiled)
	spans.Close(h)
	if err != nil {
		return nil, err
	}
	prog.Record(profile.CellStatus{Workload: p.workload.Name, Config: cfg.Name, Dur: time.Since(start)})
	h = spans.Open("rendering")
	var buf bytes.Buffer
	cliutil.FprintResult(&buf, res)
	spans.Close(h)
	return buf.Bytes(), nil
}

// runMatrix replicates distda-repro: build the matrix lazily (only if the
// selection needs it) and render the selection. The build checkpoints
// under the job's result key, so a server restarted mid-job resumes the
// finished cells instead of recomputing them.
func (r *runner) runMatrix(ctx context.Context, p *plan, prog *profile.Progress, spans *obs.SpanList) ([]byte, error) {
	degraded := false
	buildErr := error(nil)
	var m *exp.Matrix
	build := func() (*exp.Matrix, error) {
		if m != nil || buildErr != nil {
			return m, buildErr
		}
		h := spans.Open("build")
		defer spans.Close(h)
		opts := exp.Options{
			Scale:       p.scale,
			Workers:     r.cellWorkers,
			Cache:       r.cache,
			CellTimeout: r.cellTimeout,
			Checkpoint:  r.checkpointPath(p),
			Progress: func(ev exp.ProgressEvent) {
				if ev.Degraded {
					degraded = true
				}
				prog.Record(profile.CellStatus{
					Workload: ev.Workload, Config: ev.Config,
					Dur: ev.Dur, Degraded: ev.Degraded, Resumed: ev.Resumed,
				})
			},
		}
		m, buildErr = exp.Build(ctx, opts)
		return m, buildErr
	}
	var buf bytes.Buffer
	h := spans.Open("rendering")
	err := exp.RenderSelection(&buf, p.scale, p.sel, build)
	spans.Close(h)
	if err != nil {
		return nil, err
	}
	if path := r.checkpointPath(p); path != "" && m != nil && !degraded {
		os.Remove(path) // complete build; the result cache supersedes it
	}
	if degraded {
		return buf.Bytes(), errDegraded
	}
	return buf.Bytes(), nil
}

// checkpointPath returns the per-job matrix checkpoint file, keyed by the
// job's content address so only byte-identical resubmissions resume it.
func (r *runner) checkpointPath(p *plan) string {
	if r.stateDir == "" {
		return ""
	}
	return filepath.Join(r.stateDir, p.key+".ckpt")
}
