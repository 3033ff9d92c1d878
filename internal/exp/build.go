package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"distda/internal/artifact"
	"distda/internal/compiler"
	"distda/internal/engine"
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

	// Observe attaches per-cell tracing and metrics collection.
	Observe Observe

	// Cache is the compile cache shared by the cells. When nil, Build uses
	// a private in-memory cache; pass a disk-backed artifact.New to reuse
	// compilations across processes. Cache counters are folded into
	// Observe.Metrics (artifact/ component) after the run.
	Cache *artifact.Cache

	// EngineMode selects the engine scheduling strategy for every cell
	// (adaptive — the zero value — or the naive reference).
	// Results are bit-identical across modes; this picks wall-clock only.
	EngineMode engine.Mode

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

	// Retries is the number of times a cell is re-attempted after a
	// transient failure (see Transient). Timeouts are never retried.
	Retries int

	// RetryBackoff is the base delay between attempts; attempt n waits
	// n*RetryBackoff. Zero selects a small default.
	RetryBackoff time.Duration

	// Hook, when non-nil, runs before every cell attempt (fault-injection
	// point for tests and the CLI's -hang-cell flag). Returning an error
	// fails the attempt exactly as a simulation error would; blocking on
	// ctx.Done simulates a hung cell.
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

// CellHook is Options.Hook: a per-attempt fault-injection callback. ctx is
// the cell's context (it carries the per-cell deadline).
type CellHook func(ctx context.Context, workload, config string, attempt int) error

// transientError marks an error as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so Build's retry policy re-attempts the cell. The
// simulator itself never fails transiently — this exists for hooks and
// harnesses that inject recoverable faults.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked with
// Transient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

const defaultRetryBackoff = 10 * time.Millisecond

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
// (already-checkpointed cells survive for the next attempt).
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
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}

	m := &Matrix{
		Scale:     opts.Scale,
		Workloads: workloads.All(opts.Scale),
		Configs:   sim.AllPaperConfigs(),
		Res:       map[string]map[string]*sim.Result{},
		Degraded:  map[string]map[string]string{},
	}
	nw, nc := len(m.Workloads), len(m.Configs)

	// Inputs: serial pre-generation in serial-run order for EVERY cell —
	// including resumed ones. The workload generators share seeded RNG
	// state across NewData calls, so skipping a cell's draw would shift
	// every later cell's inputs and break resume-equivalence.
	data := make([][]map[string][]float64, nw)
	for i, w := range m.Workloads {
		data[i] = make([]map[string][]float64, nc)
		for j := range m.Configs {
			data[i][j] = w.NewData()
		}
	}

	// Resume: load the checkpoint (if any) and mark its cells done.
	ck, err := newCheckpointer(opts.Checkpoint, m)
	if err != nil {
		return nil, err
	}
	resumed := ck.resumed()

	// Observability: per-cell tracers are drawn serially (provider state is
	// never raced) for the cells that will actually run; per-cell metrics
	// registries and profilers are merged serially below.
	tracers := make([][]*trace.Tracer, nw)
	cellMet := make([][]*trace.Metrics, nw)
	cellProf := make([][]*profile.Profiler, nw)
	for i, w := range m.Workloads {
		tracers[i] = make([]*trace.Tracer, nc)
		cellMet[i] = make([]*trace.Metrics, nc)
		cellProf[i] = make([]*profile.Profiler, nc)
		for j, cfg := range m.Configs {
			if resumed[i*nc+j] != nil {
				continue
			}
			if opts.Observe.Tracer != nil {
				tracers[i][j] = opts.Observe.Tracer(w.Name, cfg.Name)
			}
			if opts.Observe.Metrics != nil {
				cellMet[i][j] = trace.NewMetrics()
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
	b := &builder{m: m, opts: opts, cache: cache, backoff: backoff}
	type cellIdx struct{ i, j int }
	jobs := make(chan cellIdx)
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				cfg := m.Configs[c.j]
				cfg.Trace = tracers[c.i][c.j]
				cfg.Metrics = cellMet[c.i][c.j]
				cfg.Profile = cellProf[c.i][c.j]
				t0 := time.Now()
				res, degraded, err := b.runCell(ctx, m.Workloads[c.i], cfg, data[c.i][c.j])
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
	for i := 0; i < nw; i++ {
		for j := 0; j < nc; j++ {
			if resumed[i*nc+j] == nil {
				jobs <- cellIdx{i, j}
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

	// Fold per-cell profilers in serial cell order. (Profiler.Merge is
	// commutative, so any order yields the identical profile; serial order
	// keeps the invariant obvious.)
	if prof := opts.Observe.Profile; prof != nil {
		for i := range m.Workloads {
			for j := range m.Configs {
				prof.Merge(cellProf[i][j]) // nil cells no-op
			}
		}
	}

	// Fold per-cell metrics in serial cell order (identical at any worker
	// count), then the cache counters under the artifact/ component.
	if met := opts.Observe.Metrics; met != nil {
		for i := range m.Workloads {
			for j := range m.Configs {
				if cellMet[i][j] != nil {
					met.Merge(cellMet[i][j])
				}
			}
		}
		st := cache.Stats()
		met.Counter("artifact/requests").Add(st.Requests)
		met.Counter("artifact/mem_hits").Add(st.MemHits)
		met.Counter("artifact/disk_hits").Add(st.DiskHits)
		met.Counter("artifact/compiles").Add(st.Compiles)
		met.Counter("artifact/rebinds").Add(st.Rebinds)
		met.Counter("artifact/evicted").Add(st.Evicted)
		met.Counter("artifact/errors").Add(st.Errors)
		pst := cache.ProgramStats()
		met.Counter("artifact/program_requests").Add(pst.Requests)
		met.Counter("artifact/program_mem_hits").Add(pst.MemHits)
		met.Counter("artifact/program_disk_hits").Add(pst.DiskHits)
		met.Counter("artifact/program_compiles").Add(pst.Compiles)
		met.Counter("artifact/program_rebinds").Add(pst.Rebinds)
		met.Counter("artifact/program_evicted").Add(pst.Evicted)
		met.Counter("artifact/program_errors").Add(pst.Errors)
	}
	return m, nil
}

// builder carries Build's per-run state into the workers.
type builder struct {
	m       *Matrix
	opts    Options
	cache   *artifact.Cache
	backoff time.Duration
}

// runCell executes one cell under the per-cell deadline and retry policy.
// It returns exactly one of: a result, a degradation reason (timeout), or
// an error.
func (b *builder) runCell(ctx context.Context, w *workloads.Workload, cfg sim.Config, data map[string][]float64) (*sim.Result, string, error) {
	cellCtx := ctx
	if b.opts.CellTimeout > 0 {
		var cancel context.CancelFunc
		cellCtx, cancel = context.WithTimeout(ctx, b.opts.CellTimeout)
		defer cancel()
	}
	cfg.Cancel = cellCtx.Done()

	for attempt := 0; ; attempt++ {
		res, err := b.attempt(cellCtx, w, cfg, data, attempt)
		if err == nil {
			return res, "", nil
		}
		timedOut := errors.Is(err, sim.ErrCanceled) ||
			errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
		if timedOut {
			if ctx.Err() != nil {
				// The run itself was canceled, not just this cell.
				return nil, "", fmt.Errorf("%w (run canceled)", err)
			}
			return nil, fmt.Sprintf("timeout after %s", b.opts.CellTimeout), nil
		}
		if IsTransient(err) && attempt < b.opts.Retries {
			if cfg.Trace != nil {
				cfg.Trace.Component("exp").Instant("retry", 0,
					trace.KV{K: "cell", V: w.Name + "/" + cfg.Name},
					trace.KV{K: "attempt", V: attempt + 1})
			}
			select {
			case <-time.After(time.Duration(attempt+1) * b.backoff):
			case <-cellCtx.Done():
			}
			continue
		}
		return nil, "", err
	}
}

// attempt performs one try of a cell: hook, cached compile, simulation.
// Each attempt runs on a private copy of the cell's input data — a failed
// attempt may have mutated it.
func (b *builder) attempt(ctx context.Context, w *workloads.Workload, cfg sim.Config, data map[string][]float64, attempt int) (*sim.Result, error) {
	if b.opts.Hook != nil {
		if err := b.opts.Hook(ctx, w.Name, cfg.Name, attempt); err != nil {
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
	cfg.EngineMode = b.opts.EngineMode
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
	return sim.RunPrecompiled(w.Kernel, w.Params, cloneData(data), cfg, compiled)
}

func cloneData(data map[string][]float64) map[string][]float64 {
	out := make(map[string][]float64, len(data))
	for k, v := range data {
		c := make([]float64, len(v))
		copy(c, v)
		out[k] = c
	}
	return out
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
	tmp, err := os.CreateTemp(filepath.Dir(c.path), ".checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("exp: checkpoint: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: checkpoint: %w", err)
	}
	return nil
}
