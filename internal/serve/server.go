package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"distda/internal/artifact"
	"distda/internal/obs"
	"distda/internal/profile"
	"distda/internal/sim"
)

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrRateLimited: the tenant's token bucket is empty (429).
	ErrRateLimited = errors.New("serve: tenant rate limit exceeded")
	// ErrShuttingDown: the server no longer accepts jobs (503).
	ErrShuttingDown = errors.New("serve: server shutting down")
	// ErrUnknownJob: no job with that ID (404).
	ErrUnknownJob = errors.New("serve: unknown job")
)

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Config parameterizes a Server. The zero value works: in-memory cache,
// no rate limit, no state directory.
type Config struct {
	// Workers is the number of jobs executing concurrently (default 2).
	// Each matrix job additionally parallelizes its cells (CellWorkers).
	Workers int
	// CellWorkers is exp.Options.Workers for matrix jobs (0 = GOMAXPROCS).
	CellWorkers int
	// QueueDepth bounds the job queue (default 64); a full queue rejects
	// submissions with ErrQueueFull (HTTP 429).
	QueueDepth int
	// Rate is the per-tenant sustained submission rate in jobs/second
	// (0 = unlimited); Burst is the bucket depth (default 8).
	Rate  float64
	Burst int
	// Cache is the shared artifact cache for compiled kernels and result
	// envelopes (nil = process-private in-memory cache). Point it at the
	// same -cache-dir the batch CLIs use to share compilations.
	Cache *artifact.Cache
	// StateDir, when set, holds matrix checkpoints and the shutdown
	// journal, letting a restarted server resume unfinished jobs
	// byte-identically.
	StateDir string
	// CellTimeout is passed through to exp.Options for matrix jobs.
	CellTimeout time.Duration
	// Obs, when non-nil, receives wall-clock telemetry: per-tenant ×
	// per-outcome job counts, queue depth/wait, per-stage latency
	// histograms and cache hit mirrors — rendered by
	// the /metrics endpoint. Observational only: served bytes are
	// bit-identical with it on or off.
	Obs *obs.Registry
	// Logger, when non-nil, receives structured request logs keyed by job
	// ID.
	Logger *slog.Logger
	// Now is the rate limiter's clock (tests; nil = time.Now).
	Now func() time.Time
}

// Job is one submitted experiment. All fields are guarded by the owning
// Server's mutex; read them through Status.
type Job struct {
	id        string
	plan      *plan
	submitted time.Time

	state     JobState
	errMsg    string
	output    []byte
	cached    bool // served straight from the result cache
	coalesced bool // attached to another job's in-flight execution
	degraded  bool // matrix rendered with n/a cells (not cached)
	started   time.Time
	finished  time.Time
	exec      *execution
	spans     []obs.Span // job-local lifecycle spans (markers, short-circuits)
	done      chan struct{}
}

// execution is one unit of work on the queue. Concurrent submissions with
// the same content address attach to a single execution — the simulation
// runs once and every attached job receives the same bytes.
type execution struct {
	key      string
	tenant   string
	plan     *plan
	progress *profile.Progress
	ctx      context.Context
	cancel   context.CancelFunc
	jobs     []*Job // attached jobs; guarded by Server.mu
	userStop bool   // canceled because the last attached job was canceled

	// Observability (wall-clock only, never feeds the simulation): the
	// lifecycle span list shared by every attached job and the handle of
	// the open "queued" span.
	spans      *obs.SpanList
	queuedSpan int
}

// Stats are the server's cumulative counters plus current queue state.
type Stats struct {
	Submitted    int64 `json:"submitted"`
	Completed    int64 `json:"completed"`
	Failed       int64 `json:"failed"`
	Canceled     int64 `json:"canceled"`
	CacheHits    int64 `json:"cache_hits"` // served without executing
	Coalesced    int64 `json:"coalesced"`  // attached to an in-flight execution
	RejectedFull int64 `json:"rejected_full"`
	RejectedRate int64 `json:"rejected_rate"`
	Restored     int64 `json:"restored"` // journaled jobs resubmitted at startup
	// Backends counts submitted run jobs by resolved accelerator backend
	// ("none" for backend-less configs; matrix jobs are not counted — they
	// span many backends).
	Backends     map[string]int64 `json:"backends,omitempty"`
	QueueLen     int              `json:"queue_len"`
	Running      int              `json:"running"`
	ResultCache  artifact.Stats   `json:"result_cache"`
	CompileCache artifact.Stats   `json:"compile_cache"`
}

// Server is the job server: a bounded tenant-fair queue feeding a fixed
// worker pool, with result caching and execution coalescing keyed by
// content address.
type Server struct {
	cfg     Config
	cache   *artifact.Cache
	queue   *queue
	limiter *limiter
	run     func(ctx context.Context, sr *sim.Runner, p *plan, prog *profile.Progress, spans *obs.SpanList) ([]byte, error)
	// builtins holds every built-in workload a run job has named, built
	// once per server.
	builtins builtins

	obsReg *obs.Registry
	met    *serveMetrics
	logger *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	byID     []string // submission order, for List and the journal
	execs    map[string]*execution
	nextID   int
	running  int
	closed   bool
	draining bool
	shutdown bool
	stats    Stats
}

// NewServer builds a server, starts its worker pool, and — when
// Config.StateDir holds a shutdown journal — resubmits the journaled jobs
// under their original IDs.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 8
	}
	cache := cfg.Cache
	if cache == nil {
		cache = artifact.New(artifact.Config{})
	}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, err
		}
	}
	r := &runner{
		cache:       cache,
		cellWorkers: cfg.CellWorkers,
		cellTimeout: cfg.CellTimeout,
		stateDir:    cfg.StateDir,
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      cache,
		queue:      newQueue(cfg.QueueDepth),
		limiter:    newLimiter(cfg.Rate, cfg.Burst, cfg.Now),
		run:        r.run,
		obsReg:     cfg.Obs,
		met:        newServeMetrics(cfg.Obs),
		logger:     cfg.Logger,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		execs:      make(map[string]*execution),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if err := s.restore(); err != nil {
		s.Shutdown(context.Background())
		return nil, err
	}
	return s, nil
}

// Submit plans, admits and enqueues a job. It returns the job even when
// it completed instantly from the result cache. Errors: planning failures
// (malformed spec), ErrRateLimited, ErrQueueFull, ErrShuttingDown.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	p, err := planJob(spec, &s.builtins)
	if err != nil {
		return nil, err
	}
	return s.admit(p, "", true)
}

// admit registers a planned job. id preserves a restored job's identity
// ("" = assign fresh); limit applies the tenant rate limiter.
func (s *Server) admit(p *plan, id string, limit bool) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShuttingDown
	}
	if limit && !s.limiter.allow(p.tenant) {
		s.stats.RejectedRate++
		s.met.jobs.With(outcomeRejectedRate, p.tenant).Inc()
		return nil, ErrRateLimited
	}
	if id == "" {
		s.nextID++
		id = fmt.Sprintf("j%06d", s.nextID)
	}
	j := &Job{
		id:        id,
		plan:      p,
		submitted: time.Now(),
		state:     StateQueued,
		done:      make(chan struct{}),
	}

	j.spans = append(j.spans, obs.Span{Name: "received", Start: j.submitted, End: j.submitted})

	// Fast path: an identical job already ran to completion.
	if env, ok := s.cache.GetResult(p.key); ok {
		j.state = StateDone
		j.cached = true
		j.output = env.Body
		j.finished = j.submitted
		now := time.Now()
		j.spans = append(j.spans, obs.Span{Name: "cache_hit", Start: now, End: now})
		close(j.done)
		s.register(j)
		s.stats.CacheHits++
		s.met.jobs.With(outcomeCacheHit, p.tenant).Inc()
		s.logkv("job done (result cache hit)", "job", id, "tenant", p.tenant, "key", short(p.key))
		return j, nil
	}

	// Coalesce: an identical job is queued or running right now. Attach;
	// the bytes are identical by construction, so one execution serves
	// every submitter.
	if e, ok := s.execs[p.key]; ok {
		j.exec = e
		j.coalesced = true
		if len(e.jobs) > 0 && e.jobs[0].state == StateRunning {
			j.state = StateRunning
			j.started = e.jobs[0].started
		}
		now := time.Now()
		j.spans = append(j.spans, obs.Span{Name: "coalesced", Start: now, End: now})
		e.jobs = append(e.jobs, j)
		s.register(j)
		s.stats.Coalesced++
		s.met.jobs.With(outcomeCoalesced, p.tenant).Inc()
		s.logkv("job coalesced onto in-flight execution", "job", id, "tenant", p.tenant, "key", short(p.key))
		return j, nil
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	e := &execution{
		key:      p.key,
		tenant:   p.tenant,
		plan:     p,
		progress: profile.NewProgress(0),
		ctx:      ctx,
		cancel:   cancel,
		spans:    &obs.SpanList{},
	}
	e.jobs = []*Job{j}
	j.exec = e
	e.queuedSpan = e.spans.Open("queued")
	if err := s.queue.push(e); err != nil {
		cancel()
		if errors.Is(err, ErrQueueFull) {
			s.stats.RejectedFull++
			s.met.jobs.With(outcomeRejectedFull, p.tenant).Inc()
		}
		return nil, err
	}
	s.execs[p.key] = e
	s.register(j)
	s.logkv("job queued", "job", id, "kind", p.kind, "tenant", p.tenant, "key", short(p.key))
	return j, nil
}

// short truncates a content-address key for log lines.
func short(key string) string {
	if len(key) > 12 {
		return key[:12] + "…"
	}
	return key
}

// register indexes the job. Caller holds s.mu.
func (s *Server) register(j *Job) {
	s.jobs[j.id] = j
	s.byID = append(s.byID, j.id)
	s.stats.Submitted++
	s.met.jobs.With(outcomeSubmitted, j.plan.tenant).Inc()
	if j.plan.kind == KindRun {
		name := j.plan.Backend()
		if name == "" {
			name = "none"
		}
		if s.stats.Backends == nil {
			s.stats.Backends = make(map[string]int64)
		}
		s.stats.Backends[name]++
	}
}

// worker executes queued jobs until the queue closes. It owns one
// simulated machine, which every run job it executes reuses.
func (s *Server) worker() {
	defer s.wg.Done()
	var sr sim.Runner
	for {
		e, ok := s.queue.pop()
		if !ok {
			return
		}
		s.execute(e, &sr)
	}
}

func (s *Server) execute(e *execution, sr *sim.Runner) {
	s.mu.Lock()
	if len(e.jobs) == 0 {
		// Every submitter canceled between dequeue and here.
		if s.execs[e.key] == e {
			delete(s.execs, e.key)
		}
		e.cancel()
		s.mu.Unlock()
		return
	}
	now := time.Now()
	for _, j := range e.jobs {
		j.state = StateRunning
		j.started = now
		s.met.queueWait.With(j.plan.tenant).ObserveDuration(now.Sub(j.submitted))
	}
	s.running++
	s.mu.Unlock()

	e.spans.Close(e.queuedSpan)
	execSpan := e.spans.Open("executing")
	out, err := s.run(e.ctx, sr, e.plan, e.progress, e.spans)
	e.spans.Close(execSpan)
	s.met.observeStages(e.spans.Snapshot())

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	if s.execs[e.key] == e {
		delete(s.execs, e.key)
	}
	e.cancel()
	degraded := errors.Is(err, errDegraded)
	if degraded {
		err = nil
	}
	if err == nil && !degraded {
		// Cache the rendered bytes so identical resubmissions — and
		// restarted servers — answer without simulating.
		if cerr := s.cache.PutResult(e.key, map[string]string{
			"kind":       e.plan.kind,
			"equivalent": e.plan.Equivalent(),
		}, out); cerr != nil {
			s.logkv("result cache store failed", "key", short(e.key), "err", cerr)
		}
	}
	for _, j := range e.jobs {
		switch {
		case err == nil:
			j.state = StateDone
			j.output = out
			j.degraded = degraded
			s.stats.Completed++
			s.met.jobs.With(outcomeDone, j.plan.tenant).Inc()
		case e.ctx.Err() != nil && e.userStop:
			j.state = StateCanceled
			j.errMsg = "canceled"
			s.stats.Canceled++
			s.met.jobs.With(outcomeCanceled, j.plan.tenant).Inc()
		case e.ctx.Err() != nil && s.draining:
			// Interrupted by shutdown: back to queued so the journal
			// resubmits it; the matrix checkpoint keeps the finished
			// cells.
			j.state = StateQueued
			j.exec = nil
			s.logkv("job requeued for journal (drain interrupted it)", "job", j.id)
			continue
		default:
			j.state = StateFailed
			j.errMsg = err.Error()
			s.stats.Failed++
			s.met.jobs.With(outcomeFailed, j.plan.tenant).Inc()
		}
		j.finished = time.Now()
		close(j.done)
		s.logkv("job "+string(j.state), "job", j.id, "tenant", j.plan.tenant,
			"state", j.state, "wall", j.finished.Sub(j.submitted).Round(time.Millisecond))
	}
}

// Cancel detaches the job; when it is the execution's last attached job,
// the execution itself is removed from the queue or its context canceled.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	if j.state != StateQueued && j.state != StateRunning {
		return nil // already terminal; idempotent
	}
	e := j.exec
	if e != nil {
		for i, cand := range e.jobs {
			if cand == j {
				e.jobs = append(e.jobs[:i], e.jobs[i+1:]...)
				break
			}
		}
		if len(e.jobs) == 0 {
			e.userStop = true
			s.queue.remove(e)
			// Drop the dead execution from the coalescing registry either
			// way, so a fresh identical submission starts over instead of
			// attaching to a canceled context.
			if s.execs[e.key] == e {
				delete(s.execs, e.key)
			}
			e.cancel() // removes queued work's context, aborts running work
		}
	}
	j.state = StateCanceled
	j.errMsg = "canceled"
	j.finished = time.Now()
	j.exec = nil
	close(j.done)
	s.stats.Canceled++
	s.met.jobs.With(outcomeCanceled, j.plan.tenant).Inc()
	s.logkv("job canceled", "job", id, "tenant", j.plan.tenant)
	return nil
}

// Get returns the job by ID.
func (s *Server) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, nil
	}
	return nil, ErrUnknownJob
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	if len(s.stats.Backends) > 0 {
		st.Backends = make(map[string]int64, len(s.stats.Backends))
		for k, v := range s.stats.Backends {
			st.Backends[k] = v
		}
	}
	st.Running = s.running
	s.mu.Unlock()
	st.QueueLen = s.queue.len()
	st.ResultCache = s.cache.ResultStats()
	st.CompileCache = s.cache.Stats()
	return st
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobStatus is the wire representation of a job.
type JobStatus struct {
	ID         string           `json:"id"`
	Kind       string           `json:"kind"`
	Tenant     string           `json:"tenant"`
	State      JobState         `json:"state"`
	Error      string           `json:"error,omitempty"`
	Cached     bool             `json:"cached,omitempty"`
	Coalesced  bool             `json:"coalesced,omitempty"`
	Degraded   bool             `json:"degraded,omitempty"`
	Key        string           `json:"key"`
	Backend    string           `json:"backend,omitempty"` // resolved accelerator backend (run jobs)
	Equivalent string           `json:"equivalent,omitempty"`
	Submitted  time.Time        `json:"submitted"`
	Started    *time.Time       `json:"started,omitempty"`
	Finished   *time.Time       `json:"finished,omitempty"`
	Progress   profile.Snapshot `json:"progress"`
	// Spans are the job's wall-clock lifecycle spans (received, queued,
	// executing, per-stage, cache_hit/coalesced markers). Open spans have
	// no "end" field. Exportable as a Chrome trace via /api/v1/jobs/{id}/trace.
	Spans []obs.Span `json:"spans,omitempty"`
	Spec  JobSpec    `json:"spec"`
}

// Status snapshots the job for the API.
func (s *Server) Status(j *Job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		Kind:       j.plan.kind,
		Tenant:     j.plan.tenant,
		State:      j.state,
		Error:      j.errMsg,
		Cached:     j.cached,
		Coalesced:  j.coalesced,
		Degraded:   j.degraded,
		Key:        j.plan.key,
		Backend:    j.plan.Backend(),
		Equivalent: j.plan.Equivalent(),
		Submitted:  j.submitted,
		Spec:       j.plan.spec,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	st.Spans = append(st.Spans, j.spans...)
	if j.exec != nil {
		st.Progress = j.exec.progress.Snapshot()
		st.Spans = append(st.Spans, j.exec.spans.Snapshot()...)
	}
	return st
}

// Result returns the rendered output bytes once the job is done.
func (s *Server) Result(j *Job) ([]byte, JobState, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.output, j.state, j.errMsg
}

// List returns all jobs' statuses in submission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.byID...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j != nil {
			out = append(out, s.Status(j))
		}
	}
	return out
}

// StartDrain stops accepting new jobs: submissions return ErrShuttingDown
// and readiness probes (GET /readyz) flip to 503, while queued and running
// work proceeds. Idempotent; Shutdown calls it first.
func (s *Server) StartDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.draining = true
	s.logkv("drain started: rejecting new submissions",
		"queued", s.queue.len(), "running", s.running)
}

// Draining reports whether the server has stopped accepting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Shutdown stops accepting jobs, waits for running executions until ctx
// expires (then cancels them), and journals every unfinished job to
// StateDir so a restarted server resumes it — byte-identically, thanks to
// the result cache and the per-job matrix checkpoints.
func (s *Server) Shutdown(ctx context.Context) error {
	s.StartDrain()
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return nil
	}
	s.shutdown = true
	s.mu.Unlock()

	s.queue.close() // queued executions stay in s.jobs as StateQueued

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
	case <-ctx.Done():
		s.baseCancel() // abort in-flight simulations
		<-workersDone
	}
	s.baseCancel()
	return s.journal()
}

type journalFile struct {
	Version int            `json:"version"`
	NextID  int            `json:"next_id"`
	Jobs    []journalEntry `json:"jobs"`
}

type journalEntry struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
}

func (s *Server) journalPath() string {
	return filepath.Join(s.cfg.StateDir, "journal.json")
}

// journal writes the unfinished jobs (queued, or interrupted mid-run) to
// StateDir in submission order.
func (s *Server) journal() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	s.mu.Lock()
	jf := journalFile{Version: 1, NextID: s.nextID}
	for _, id := range s.byID {
		j := s.jobs[id]
		if j.state == StateQueued || j.state == StateRunning {
			jf.Jobs = append(jf.Jobs, journalEntry{ID: j.id, Spec: j.plan.spec})
		}
	}
	s.mu.Unlock()
	if len(jf.Jobs) == 0 {
		os.Remove(s.journalPath())
		return nil
	}
	data, err := json.MarshalIndent(&jf, "", "  ")
	if err != nil {
		return err
	}
	return artifact.WriteFileAtomic(s.journalPath(), data)
}

// restore resubmits journaled jobs under their original IDs, bypassing
// the rate limiter (they were admitted once already).
func (s *Server) restore() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	data, err := os.ReadFile(s.journalPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var jf journalFile
	if err := json.Unmarshal(data, &jf); err != nil {
		return fmt.Errorf("serve: corrupt journal %s: %w", s.journalPath(), err)
	}
	sort.SliceStable(jf.Jobs, func(i, k int) bool { return jf.Jobs[i].ID < jf.Jobs[k].ID })
	s.mu.Lock()
	s.nextID = jf.NextID
	s.mu.Unlock()
	for _, ent := range jf.Jobs {
		p, err := planJob(ent.Spec, &s.builtins)
		if err != nil {
			s.logkv("dropping journaled job", "job", ent.ID, "err", err)
			continue
		}
		if _, err := s.admit(p, ent.ID, false); err != nil {
			return fmt.Errorf("serve: restoring job %s: %w", ent.ID, err)
		}
		s.met.jobs.With(outcomeRestored, p.tenant).Inc()
		s.logkv("journaled job restored", "job", ent.ID, "tenant", p.tenant)
		s.mu.Lock()
		s.stats.Restored++
		s.stats.Submitted-- // restored, not newly submitted
		s.mu.Unlock()
	}
	os.Remove(s.journalPath())
	return nil
}
