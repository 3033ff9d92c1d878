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
	"distda/internal/exp"
	"distda/internal/obs"
	"distda/internal/sim"
)

// errDegraded marks a matrix-job result that contains timed-out ("n/a")
// cells.
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
// recorded per completed cell (run jobs count as a single cell).
// A degraded render is returned alongside errDegraded. spans
// records the wall-clock lifecycle stages; it never feeds the simulation,
// so the bytes are identical with or without it.
func (r *runner) run(ctx context.Context, sr *sim.Runner, p *plan, prog *obs.Progress, spans *obs.SpanList) ([]byte, error) {
	switch p.kind {
	case KindRun:
		return r.runOne(ctx, sr, p, prog, spans)
	case KindMatrix:
		return r.runMatrix(ctx, p, prog, spans)
	}
	return nil, fmt.Errorf("serve: unknown plan kind %q", p.kind)
}

// runOne replicates distda-run: one cell through exp.RunCell (strip-mined
// for threads, compiled through the shared content-addressed cache) on
// the executing worker's machine sr, rendered with FprintResult. It runs
// on a copy of the built-in's stored first input draw, and a run of the
// built-in's own kernel validates against its stored reference output.
func (r *runner) runOne(ctx context.Context, sr *sim.Runner, p *plan, prog *obs.Progress, spans *obs.SpanList) ([]byte, error) {
	prog.SetTotal(1)
	start := time.Now()
	cell := exp.Cell{W: p.workload, Scale: p.scale, Cfg: p.cfg, Threads: p.spec.Threads, Text: p.text}
	if p.workload == p.src.w {
		cell.Reference = func() (map[string][]float64, error) { return p.src.reference(r.cache) }
	}
	res, err := exp.RunCell(ctx, r.cache, sr, cell, p.src.inputs(), spans)
	if err != nil {
		return nil, err
	}
	prog.Record(obs.CellStatus{Workload: p.workload.Name, Config: p.cfg.Name, Total: 1, Dur: time.Since(start)})
	h := spans.Open("rendering")
	var buf bytes.Buffer
	cliutil.FprintResult(&buf, res)
	spans.Close(h)
	return buf.Bytes(), nil
}

// runMatrix replicates distda-repro: every cell the selection needs runs
// on the job's worker pool, then the selection renders. The run
// checkpoints under the job's result key, so a server restarted mid-job
// resumes the finished cells instead of recomputing them.
func (r *runner) runMatrix(ctx context.Context, p *plan, prog *obs.Progress, spans *obs.SpanList) ([]byte, error) {
	var buf bytes.Buffer
	h := spans.Open("build")
	sum, err := exp.Render(ctx, &buf, p.sel, exp.Options{
		Scale:       p.scale,
		Workers:     r.cellWorkers,
		Cache:       r.cache,
		CellTimeout: r.cellTimeout,
		Checkpoint:  r.checkpointPath(p),
		Progress:    prog.Record,
	})
	spans.Close(h)
	if err != nil {
		return nil, err
	}
	if len(sum.Degraded) > 0 {
		return buf.Bytes(), errDegraded
	}
	if path := r.checkpointPath(p); path != "" {
		os.Remove(path) // complete run; the result cache supersedes it
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
