package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"distda/internal/artifact"
	"distda/internal/obs"
	"distda/internal/profile"
	"distda/internal/sim"
	"distda/internal/trace"
	"distda/internal/workloads"
)

// Options configures a run of cells: Build's matrix or every section a
// Render selection needs.
type Options struct {
	// Scale selects the workload input scale.
	Scale workloads.Scale

	// Workers is the worker-pool size; <= 0 selects GOMAXPROCS. The
	// rendered output is byte-identical at any worker count.
	Workers int

	// Observe attaches per-cell tracing and profiling.
	Observe Observe

	// Cache is the compile cache shared by the cells. When nil, Build uses
	// a private in-memory cache; pass a disk-backed artifact.New to reuse
	// compilations across processes. Cache counters are added to
	// Observe.Profile (artifact.* counters) after the run.
	Cache *artifact.Cache

	// Checkpoint, when non-empty, is the path of a JSON checkpoint that is
	// rewritten (atomically) after every completed cell. If the file
	// already holds cells of this plan at this scale, those cells are
	// resumed (not re-simulated); the rendered tables stay byte-identical
	// to an uninterrupted run. Degraded cells are never checkpointed, so a
	// resumed run retries them.
	Checkpoint string

	// CellTimeout bounds each cell's wall-clock time (0 = unbounded). A
	// cell that exceeds it degrades to an "n/a" table entry instead of
	// aborting the run; Matrix.Degraded and Summary.Degraded record the
	// reason.
	CellTimeout time.Duration

	// Hook, when non-nil, runs before every cell (a fault-injection point
	// for tests). Returning an error fails the cell exactly as a
	// simulation error would; blocking on ctx.Done simulates a hung cell.
	Hook CellHook

	// Progress, when non-nil, is invoked once per completed cell (including
	// resumed and degraded ones) — the feed for the -http live introspection
	// endpoint. Calls are serialized; the callback must not block for long
	// (it runs on the worker completion path). Invocation order follows
	// completion, not plan order.
	Progress func(ProgressEvent)
}

// ProgressEvent describes one completed cell for Options.Progress. It is
// the wall-clock progress record, so obs.Progress.Record is a ready-made
// callback.
type ProgressEvent = obs.CellStatus

// CellHook is Options.Hook: a per-cell fault-injection callback. ctx is
// the cell's context (it carries the per-cell deadline).
type CellHook func(ctx context.Context, workload, config string) error

// Build runs the full workload × configuration matrix of §VI-A under ctx:
// the matrix's plan run through the same worker pool as every other
// section (see Render).
//
// Cells fan out over Options.Workers goroutines; compilation goes through
// the (possibly disk-backed) artifact cache; completed cells are
// checkpointed so an interrupted run resumes with only the missing cells;
// and cells exceeding Options.CellTimeout degrade to "n/a" entries instead
// of sinking the whole matrix. Whatever the combination of workers, cache
// warmth and resumption, a run that completes without degradation renders
// tables byte-identical to a cold serial run.
//
// Canceling ctx aborts the run with an error wrapping sim.ErrCanceled
// (already-checkpointed cells survive for the next run).
func Build(ctx context.Context, opts Options) (*Matrix, error) {
	m := newMatrix(opts.Scale)
	out, err := run(ctx, opts, m.cells())
	if err != nil {
		return nil, err
	}
	m.fill(out)
	return m, nil
}

// newMatrix returns the §VI-A matrix's axes at scale, with no results yet.
func newMatrix(scale workloads.Scale) *Matrix {
	return &Matrix{
		Scale:     scale,
		Workloads: workloads.All(scale),
		Configs:   sim.AllPaperConfigs(),
		Res:       map[string]map[string]*sim.Result{},
		Degraded:  map[string]map[string]string{},
	}
}

// cells declares the matrix's cells, workload-major, each named
// "<workload>-<config>".
func (m *Matrix) cells() []planCell {
	var out []planCell
	for _, w := range m.Workloads {
		for _, cfg := range m.Configs {
			out = append(out, planCell{Cell{W: w, Scale: m.Scale, Cfg: cfg}, w.Name + "-" + cfg.Name})
		}
	}
	return out
}

// fill records the outcomes of the matrix's cells, given in cells() order.
func (m *Matrix) fill(out []outcome) {
	nc := len(m.Configs)
	for i, w := range m.Workloads {
		m.Res[w.Name] = map[string]*sim.Result{}
		for j, cfg := range m.Configs {
			o := out[i*nc+j]
			if o.degraded == "" {
				m.Res[w.Name][cfg.Name] = o.res
				continue
			}
			if m.Degraded[w.Name] == nil {
				m.Degraded[w.Name] = map[string]string{}
			}
			m.Degraded[w.Name][cfg.Name] = o.degraded
		}
	}
}

// planCell is one cell of a plan. Its name is unique within the plan and
// names the cell's trace and checkpoint entry.
type planCell struct {
	Cell
	name string
}

// outcome is one cell's result, or the reason it degraded to n/a.
type outcome struct {
	res      *sim.Result
	degraded string
}

// run executes cells under ctx on Options.Workers goroutines and returns
// their outcomes in plan order. Each cell's inputs are drawn as the cell
// is dispatched, in plan order; resumed cells come from the checkpoint.
// The first error in plan order fails the run, as in a serial loop.
func run(ctx context.Context, opts Options, cells []planCell) ([]outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := opts.Cache
	if cache == nil {
		cache = artifact.New(artifact.Config{})
	}
	ck, err := newCheckpointer(opts.Checkpoint, opts.Scale)
	if err != nil {
		return nil, err
	}
	out := make([]outcome, len(cells))
	errs := make([]error, len(cells))
	resumed := make([]bool, len(cells))
	for i, c := range cells {
		if r := ck.cells[c.name]; r != nil {
			out[i].res, resumed[i] = r, true
		}
	}

	// Observability: per-cell profilers are merged serially below. A
	// worker creates a cell's tracer when it picks the cell up and hands
	// it to Observe.TraceDone as soon as the cell returns, so at most one
	// per worker is reachable; traceMu serializes the TraceDone calls.
	profs := make([]*profile.Profiler, len(cells))
	for i := range cells {
		if !resumed[i] && opts.Observe.Profile != nil {
			profs[i] = profile.New()
		}
	}
	var traceMu sync.Mutex
	traceDone := func(i int, tr *trace.Tracer) error {
		if tr == nil {
			return nil
		}
		traceMu.Lock()
		defer traceMu.Unlock()
		return opts.Observe.TraceDone(cells[i].name, tr)
	}

	// Progress: serialize callback invocations; resumed cells report
	// up-front (they complete instantly, before the workers start).
	var progressMu sync.Mutex
	emit := func(ev ProgressEvent) {
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		opts.Progress(ev)
		progressMu.Unlock()
	}
	event := func(i int) ProgressEvent {
		return ProgressEvent{Workload: cells[i].W.Name, Config: cells[i].Cfg.Name, Index: i, Total: len(cells)}
	}
	for i := range cells {
		if resumed[i] {
			ev := event(i)
			ev.Resumed = true
			emit(ev)
		}
	}

	type job struct {
		i    int
		data map[string][]float64
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one simulated machine and reuses it for
			// every cell it runs.
			var sr sim.Runner
			for j := range jobs {
				c := cells[j.i].Cell
				if opts.Observe.TraceDone != nil {
					c.Cfg.Trace = trace.New()
				}
				c.Cfg.Profile = profs[j.i]
				t0 := time.Now()
				res, degraded, err := runCell(ctx, opts, cache, &sr, c, j.data)
				if terr := traceDone(j.i, c.Cfg.Trace); err == nil {
					err = terr
				}
				out[j.i], errs[j.i] = outcome{res: res, degraded: degraded}, err
				if err != nil {
					continue
				}
				if degraded == "" {
					if ckErr := ck.record(cells[j.i].name, res); ckErr != nil {
						errs[j.i] = ckErr
					}
				}
				ev := event(j.i)
				ev.Dur, ev.Degraded = time.Since(t0), degraded != ""
				emit(ev)
			}
		}()
	}
	// Inputs are drawn here, one cell at a time in plan order, as the cell
	// is dispatched: the unbuffered channel holds the next draw until a
	// worker is free, so at most workers+1 input sets are reachable at once
	// and a finished cell's inputs are garbage as soon as it returns. EVERY
	// cell is drawn, resumed ones included (their draw is dropped): the
	// workload generators share seeded RNG state across NewData calls, so
	// skipping a draw would shift every later cell's inputs on the same
	// instance and break resume-equivalence. A canceled run stops feeding.
	canceled := false
feed:
	for i, c := range cells {
		data := drawInputs(c.W)
		if resumed[i] {
			continue
		}
		select {
		case jobs <- job{i, data}:
		case <-ctx.Done():
			canceled = true
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: %s on %s: %w", cells[i].W.Name, cells[i].Cfg.Name, err)
		}
	}
	if canceled {
		return nil, fmt.Errorf("exp: %w (run canceled)", sim.ErrCanceled)
	}

	// Fold per-cell profilers in plan order (Profiler.Merge is commutative,
	// so any order yields the identical profile; plan order keeps the
	// invariant obvious), then add the cache counters.
	if prof := opts.Observe.Profile; prof != nil {
		for _, p := range profs {
			prof.Merge(p) // nil cells no-op
		}
		for prefix, st := range map[string]artifact.Stats{
			"artifact.":         cache.Stats(),
			"artifact.program_": cache.ProgramStats(),
		} {
			prof.Add(prefix+"requests", st.Requests)
			prof.Add(prefix+"mem_hits", st.MemHits)
			prof.Add(prefix+"disk_hits", st.DiskHits)
			prof.Add(prefix+"compiles", st.Compiles)
			prof.Add(prefix+"rebinds", st.Rebinds)
			prof.Add(prefix+"evicted", st.Evicted)
			prof.Add(prefix+"errors", st.Errors)
		}
	}
	return out, nil
}

// drawInputs generates one cell's inputs. Tests replace it to watch the
// lifetime of each drawn set.
var drawInputs = (*workloads.Workload).NewData

// runCell runs one plan cell under the per-cell deadline. It returns
// exactly one of: a result, a degradation reason (timeout), or an error.
func runCell(ctx context.Context, opts Options, cache *artifact.Cache, sr *sim.Runner, c Cell, data map[string][]float64) (*sim.Result, string, error) {
	cellCtx := ctx
	if opts.CellTimeout > 0 {
		var cancel context.CancelFunc
		cellCtx, cancel = context.WithTimeout(ctx, opts.CellTimeout)
		defer cancel()
	}
	var res *sim.Result
	var err error
	if opts.Hook != nil {
		err = opts.Hook(cellCtx, c.W.Name, c.Cfg.Name)
	}
	if err == nil {
		res, err = RunCell(cellCtx, cache, sr, c, data, nil)
	}
	if err == nil {
		return res, "", nil
	}
	timedOut := errors.Is(err, sim.ErrCanceled) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
	if !timedOut {
		return nil, "", err
	}
	if ctx.Err() != nil {
		// The run itself was canceled, not just this cell.
		return nil, "", fmt.Errorf("%w (run canceled)", err)
	}
	return nil, fmt.Sprintf("timeout after %s", opts.CellTimeout), nil
}

// checkpointVersion is bumped whenever the checkpoint schema changes; old
// files then fail loudly instead of resuming garbage.
const checkpointVersion = 2

// checkpointFile is the on-disk checkpoint: one entry per completed cell,
// keyed by the cell's plan name, sorted by name.
type checkpointFile struct {
	Version int              `json:"version"`
	Scale   string           `json:"scale"`
	Cells   []checkpointCell `json:"cells"`
}

type checkpointCell struct {
	Cell   string      `json:"cell"`
	Result *sim.Result `json:"result"`
}

// checkpointer persists completed cells. record is safe for concurrent use;
// every successful record leaves a consistent file on disk (written to a
// temp file and renamed into place). Cells of other selections at the same
// scale are kept, so one checkpoint serves any mix of sections.
type checkpointer struct {
	mu    sync.Mutex
	path  string
	scale string
	cells map[string]*sim.Result
}

// newCheckpointer loads an existing checkpoint at path (when present). A
// checkpoint written at another scale or schema is an error, not a silent
// cold start.
func newCheckpointer(path string, scale workloads.Scale) (*checkpointer, error) {
	ck := &checkpointer{path: path, scale: scale.String(), cells: map[string]*sim.Result{}}
	if path == "" {
		return ck, nil
	}
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ck, nil
	}
	if err != nil {
		return nil, fmt.Errorf("exp: checkpoint: %w", err)
	}
	var f checkpointFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("exp: checkpoint %s: %w", path, err)
	}
	if f.Version != checkpointVersion {
		return nil, fmt.Errorf("exp: checkpoint %s: version %d, want %d", path, f.Version, checkpointVersion)
	}
	if f.Scale != ck.scale {
		return nil, fmt.Errorf("exp: checkpoint %s: scale %q, run wants %q", path, f.Scale, ck.scale)
	}
	for _, cell := range f.Cells {
		if cell.Cell == "" || cell.Result == nil {
			return nil, fmt.Errorf("exp: checkpoint %s: malformed cell %q", path, cell.Cell)
		}
		ck.cells[cell.Cell] = cell.Result
	}
	return ck, nil
}

// record adds a completed cell and rewrites the checkpoint file.
func (c *checkpointer) record(name string, r *sim.Result) error {
	if c.path == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells[name] = r
	names := make([]string, 0, len(c.cells))
	for n := range c.cells {
		names = append(names, n)
	}
	sort.Strings(names)
	f := checkpointFile{Version: checkpointVersion, Scale: c.scale}
	for _, n := range names {
		f.Cells = append(f.Cells, checkpointCell{Cell: n, Result: c.cells[n]})
	}
	raw, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return fmt.Errorf("exp: checkpoint: %w", err)
	}
	if err := artifact.WriteFileAtomic(c.path, raw); err != nil {
		return fmt.Errorf("exp: checkpoint: %w", err)
	}
	return nil
}
