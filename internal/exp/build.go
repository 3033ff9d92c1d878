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
	"distda/internal/compiler"
	"distda/internal/profile"
	"distda/internal/sim"
	"distda/internal/trace"
	"distda/internal/workloads"
)

// Options configures Build, the unified experiment-matrix runner.
type Options struct {
	// Scale selects the workload input scale.
	Scale workloads.Scale

	// Workers is the worker-pool size; <= 0 selects GOMAXPROCS. The
	// rendered matrix is byte-identical at any worker count.
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
	// already holds cells for this scale, those cells are resumed (not
	// re-simulated); the rendered tables stay byte-identical to an
	// uninterrupted run. Degraded cells are never checkpointed, so a
	// resumed run retries them.
	Checkpoint string

	// CellTimeout bounds each cell's wall-clock time (0 = unbounded). A
	// cell that exceeds it degrades to an "n/a" table entry instead of
	// aborting the matrix; Matrix.Degraded records the reason.
	CellTimeout time.Duration

	// Hook, when non-nil, runs before every cell (a fault-injection point
	// for tests). Returning an error fails the cell exactly as a
	// simulation error would; blocking on ctx.Done simulates a hung cell.
	Hook CellHook

	// Progress, when non-nil, is invoked once per completed cell (including
	// resumed and degraded ones) — the feed for the -http live introspection
	// endpoint. Calls are serialized by Build; the callback must not block
	// for long (it runs on the worker completion path). Invocation order
	// follows completion, not serial cell order.
	Progress func(ProgressEvent)
}

// ProgressEvent describes one completed matrix cell for Options.Progress.
type ProgressEvent struct {
	Workload string
	Config   string
	Index    int // flat serial cell index (workload-major)
	Total    int // total cells in the matrix
	Dur      time.Duration
	Degraded bool // cell timed out and will render n/a
	Resumed  bool // restored from the checkpoint, not re-simulated
}

// CellHook is Options.Hook: a per-cell fault-injection callback. ctx is
// the cell's context (it carries the per-cell deadline).
type CellHook func(ctx context.Context, workload, config string) error

// Build runs the full workload × configuration matrix of §VI-A under ctx.
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

	m := &Matrix{
		Scale:     opts.Scale,
		Workloads: workloads.All(opts.Scale),
		Configs:   sim.AllPaperConfigs(),
		Res:       map[string]map[string]*sim.Result{},
		Degraded:  map[string]map[string]string{},
	}
	nw, nc := len(m.Workloads), len(m.Configs)

	// Resume: load the checkpoint (if any) and mark its cells done.
	ck, err := newCheckpointer(opts.Checkpoint, m)
	if err != nil {
		return nil, err
	}
	resumed := ck.resumed()

	// Observability: per-cell tracers are drawn serially (provider state is
	// never raced) for the cells that will actually run; per-cell profilers
	// are merged serially below.
	tracers := make([][]*trace.Tracer, nw)
	cellProf := make([][]*profile.Profiler, nw)
	for i, w := range m.Workloads {
		tracers[i] = make([]*trace.Tracer, nc)
		cellProf[i] = make([]*profile.Profiler, nc)
		for j, cfg := range m.Configs {
			if resumed[i*nc+j] != nil {
				continue
			}
			if opts.Observe.Tracer != nil {
				tracers[i][j] = opts.Observe.Tracer(w.Name, cfg.Name)
			}
			if opts.Observe.Profile != nil {
				cellProf[i][j] = profile.New()
			}
		}
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
	for i, w := range m.Workloads {
		for j, cfg := range m.Configs {
			if resumed[i*nc+j] != nil {
				emit(ProgressEvent{Workload: w.Name, Config: cfg.Name,
					Index: i*nc + j, Total: nw * nc, Resumed: true})
			}
		}
	}

	// Fan the unfinished cells out over the worker pool; collect into
	// cell-indexed slots so assembly below runs in deterministic serial
	// order regardless of completion order.
	type outcome struct {
		res      *sim.Result
		err      error
		degraded string // non-empty: reason the cell rendered n/a
	}
	out := make([][]outcome, nw)
	for i := range out {
		out[i] = make([]outcome, nc)
	}
	b := &builder{m: m, opts: opts, cache: cache}
	type cell struct {
		i, j int
		data map[string][]float64
	}
	jobs := make(chan cell)
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				cfg := m.Configs[c.j]
				cfg.Trace = tracers[c.i][c.j]
				cfg.Profile = cellProf[c.i][c.j]
				t0 := time.Now()
				res, degraded, err := b.runCell(ctx, m.Workloads[c.i], cfg, c.data)
				out[c.i][c.j] = outcome{res: res, err: err, degraded: degraded}
				if err == nil && degraded == "" {
					if ckErr := ck.record(c.i*nc+c.j, res); ckErr != nil {
						out[c.i][c.j].err = ckErr
					}
				}
				if err == nil {
					emit(ProgressEvent{Workload: m.Workloads[c.i].Name, Config: cfg.Name,
						Index: c.i*nc + c.j, Total: nw * nc,
						Dur: time.Since(t0), Degraded: degraded != ""})
				}
			}
		}()
	}
	// Inputs are drawn here, one cell at a time in serial-run order, as the
	// cell is dispatched: the unbuffered channel holds the next draw until a
	// worker is free, so at most workers+1 input sets are reachable at once
	// and a finished cell's inputs are garbage as soon as it returns. EVERY
	// cell is drawn, resumed ones included (their draw is dropped): the
	// workload generators share seeded RNG state across NewData calls, so
	// skipping a draw would shift every later cell's inputs and break
	// resume-equivalence.
	for i, w := range m.Workloads {
		for j := 0; j < nc; j++ {
			data := drawInputs(w)
			if resumed[i*nc+j] == nil {
				jobs <- cell{i, j, data}
			}
		}
	}
	close(jobs)
	wg.Wait()

	// Assemble in serial order; the first error in serial order wins, as in
	// a serial loop. Degraded cells keep a nil result (rendered as n/a).
	for i, w := range m.Workloads {
		for j, cfg := range m.Configs {
			if r := resumed[i*nc+j]; r != nil {
				out[i][j] = outcome{res: r}
				continue
			}
			if err := out[i][j].err; err != nil {
				return nil, fmt.Errorf("exp: %s on %s: %w", w.Name, cfg.Name, err)
			}
		}
		m.Res[w.Name] = map[string]*sim.Result{}
		for j, cfg := range m.Configs {
			o := out[i][j]
			if o.degraded != "" {
				if m.Degraded[w.Name] == nil {
					m.Degraded[w.Name] = map[string]string{}
				}
				m.Degraded[w.Name][cfg.Name] = o.degraded
				continue
			}
			m.Res[w.Name][cfg.Name] = o.res
		}
	}

	// Fold per-cell profilers in serial cell order (Profiler.Merge is
	// commutative, so any order yields the identical profile; serial order
	// keeps the invariant obvious), then add the cache counters.
	if prof := opts.Observe.Profile; prof != nil {
		for i := range m.Workloads {
			for j := range m.Configs {
				prof.Merge(cellProf[i][j]) // nil cells no-op
			}
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
	return m, nil
}

// drawInputs generates one cell's inputs. Tests replace it to watch the
// lifetime of each drawn set.
var drawInputs = (*workloads.Workload).NewData

// builder carries Build's per-run state into the workers.
type builder struct {
	m     *Matrix
	opts  Options
	cache *artifact.Cache
}

// runCell executes one cell under the per-cell deadline. It returns
// exactly one of: a result, a degradation reason (timeout), or an error.
func (b *builder) runCell(ctx context.Context, w *workloads.Workload, cfg sim.Config, data map[string][]float64) (*sim.Result, string, error) {
	cellCtx := ctx
	if b.opts.CellTimeout > 0 {
		var cancel context.CancelFunc
		cellCtx, cancel = context.WithTimeout(ctx, b.opts.CellTimeout)
		defer cancel()
	}
	cfg.Cancel = cellCtx.Done()

	res, err := b.simulate(cellCtx, w, cfg, data)
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
	return nil, fmt.Sprintf("timeout after %s", b.opts.CellTimeout), nil
}

// simulate runs a cell: hook, cached compile, simulation. Each cell runs
// exactly once, so it simulates on its freshly drawn inputs in place.
func (b *builder) simulate(ctx context.Context, w *workloads.Workload, cfg sim.Config, data map[string][]float64) (*sim.Result, error) {
	if b.opts.Hook != nil {
		if err := b.opts.Hook(ctx, w.Name, cfg.Name); err != nil {
			return nil, err
		}
	}
	var compiled *compiler.Compiled
	if cfg.HasAccel() {
		copts := sim.CompileOptions(cfg)
		key := artifact.Key(w.Name, b.m.Scale.String(), w.Kernel, copts)
		var err error
		compiled, err = b.cache.GetOrCompile(key, w.Kernel, func() (*compiler.Compiled, error) {
			return compiler.Compile(w.Kernel, copts)
		})
		if err != nil {
			return nil, err
		}
	}
	if cfg.ValidateEvery {
		// Fetch the kernel's bytecode program for reference validation from
		// the same (possibly disk-backed) cache as the offload artifact.
		pkey := artifact.ProgramKey(w.Name, b.m.Scale.String(), w.Kernel)
		prog, err := b.cache.GetOrProgram(pkey, w.Kernel)
		if err != nil {
			return nil, err
		}
		cfg.Program = prog
	}
	return sim.RunPrecompiled(w.Kernel, w.Params, data, cfg, compiled)
}

// checkpointVersion is bumped whenever the checkpoint schema changes; old
// files then fail loudly instead of resuming garbage.
const checkpointVersion = 1

// checkpointFile is the on-disk checkpoint: the matrix axes plus one entry
// per completed cell, in serial cell order.
type checkpointFile struct {
	Version   int              `json:"version"`
	Scale     string           `json:"scale"`
	Workloads []string         `json:"workloads"`
	Configs   []string         `json:"configs"`
	Cells     []checkpointCell `json:"cells"`
}

type checkpointCell struct {
	Workload string      `json:"workload"`
	Config   string      `json:"config"`
	Result   *sim.Result `json:"result"`
}

// checkpointer persists completed cells. record is safe for concurrent use;
// every successful record leaves a consistent file on disk (written to a
// temp file and renamed into place).
type checkpointer struct {
	mu    sync.Mutex
	path  string
	m     *Matrix
	cells map[int]*sim.Result // flat index i*len(Configs)+j
}

// newCheckpointer loads an existing checkpoint at path (when present) and
// validates it against the matrix axes. A checkpoint written for different
// axes is an error, not a silent cold start.
func newCheckpointer(path string, m *Matrix) (*checkpointer, error) {
	ck := &checkpointer{path: path, m: m, cells: map[int]*sim.Result{}}
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
	if f.Scale != m.Scale.String() {
		return nil, fmt.Errorf("exp: checkpoint %s: scale %q, run wants %q", path, f.Scale, m.Scale)
	}
	wIdx := map[string]int{}
	for i, w := range m.Workloads {
		wIdx[w.Name] = i
	}
	cIdx := map[string]int{}
	for j, c := range m.Configs {
		cIdx[c.Name] = j
	}
	for _, cell := range f.Cells {
		i, okW := wIdx[cell.Workload]
		j, okC := cIdx[cell.Config]
		if !okW || !okC || cell.Result == nil {
			return nil, fmt.Errorf("exp: checkpoint %s: unknown cell %s/%s", path, cell.Workload, cell.Config)
		}
		ck.cells[i*len(m.Configs)+j] = cell.Result
	}
	return ck, nil
}

// resumed returns the loaded cells keyed by flat index.
func (c *checkpointer) resumed() map[int]*sim.Result {
	out := make(map[int]*sim.Result, len(c.cells))
	for k, v := range c.cells {
		out[k] = v
	}
	return out
}

// record adds a completed cell and rewrites the checkpoint file.
func (c *checkpointer) record(idx int, r *sim.Result) error {
	if c.path == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells[idx] = r
	return c.write()
}

// write persists the checkpoint atomically, cells sorted in serial order.
// Caller holds c.mu.
func (c *checkpointer) write() error {
	nc := len(c.m.Configs)
	idxs := make([]int, 0, len(c.cells))
	for idx := range c.cells {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	f := checkpointFile{Version: checkpointVersion, Scale: c.m.Scale.String()}
	for _, w := range c.m.Workloads {
		f.Workloads = append(f.Workloads, w.Name)
	}
	for _, cfg := range c.m.Configs {
		f.Configs = append(f.Configs, cfg.Name)
	}
	for _, idx := range idxs {
		f.Cells = append(f.Cells, checkpointCell{
			Workload: c.m.Workloads[idx/nc].Name,
			Config:   c.m.Configs[idx%nc].Name,
			Result:   c.cells[idx],
		})
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
