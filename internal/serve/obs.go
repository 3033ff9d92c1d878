package serve

import (
	"distda/internal/artifact"
	"distda/internal/obs"
)

// Job outcome labels for the distda_jobs_total counter.
const (
	outcomeSubmitted    = "submitted"
	outcomeCacheHit     = "cache_hit"
	outcomeCoalesced    = "coalesced"
	outcomeRejectedRate = "rejected_rate"
	outcomeRejectedFull = "rejected_full"
	outcomeRestored     = "restored"
	outcomeDone         = "done"
	outcomeFailed       = "failed"
	outcomeCanceled     = "canceled"
)

// serveMetrics is the server's wall-clock metric handles. Built from a
// possibly-nil registry: with telemetry disabled every field is a nil
// vector whose instruments no-op, so record sites stay unconditional and
// the disabled path costs a nil check (bounded by TestDisabledObsOverhead).
type serveMetrics struct {
	// jobs counts job lifecycle events by outcome × tenant.
	jobs *obs.CounterVec
	// queueDepth / running are point-in-time gauges, refreshed at scrape.
	queueDepth *obs.GaugeVec
	running    *obs.GaugeVec
	// queueWait is time from submission to execution start, per tenant.
	queueWait *obs.HistogramVec
	// stage is wall-clock latency per job lifecycle stage (queued,
	// executing, compile, simulate, build, render).
	stage *obs.HistogramVec
	// resultCache / compileCache mirror the artifact cache counters at
	// scrape time (event label: requests, mem_hits, ...).
	resultCache  *obs.CounterVec
	compileCache *obs.CounterVec
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	return &serveMetrics{
		jobs: reg.Counter("distda_jobs_total",
			"Job lifecycle events by outcome and tenant.", "outcome", "tenant"),
		queueDepth: reg.Gauge("distda_queue_depth",
			"Executions waiting in the job queue."),
		running: reg.Gauge("distda_running_jobs",
			"Executions currently running."),
		queueWait: reg.Histogram("distda_job_queue_wait_seconds",
			"Wall-clock wait from submission to execution start.", nil, "tenant"),
		stage: reg.Histogram("distda_job_stage_seconds",
			"Wall-clock latency per job lifecycle stage.", nil, "stage"),
		resultCache: reg.Counter("distda_result_cache_events_total",
			"Result cache counters, mirrored at scrape time.", "event"),
		compileCache: reg.Counter("distda_compile_cache_events_total",
			"Compile cache counters, mirrored at scrape time.", "event"),
	}
}

// observeStages feeds every closed span of a finished execution into the
// per-stage latency histograms.
func (m *serveMetrics) observeStages(spans []obs.Span) {
	for _, sp := range spans {
		if sp.End.IsZero() || sp.End.Equal(sp.Start) {
			continue // open spans and point markers are not stages
		}
		m.stage.With(sp.Name).ObserveDuration(sp.Duration())
	}
}

// syncObs refreshes the scrape-time mirrors: queue/running gauges and cache
// counters. Called by the /metrics handler
// just before rendering.
func (s *Server) syncObs() {
	st := s.Stats()
	s.met.queueDepth.With().Set(float64(st.QueueLen))
	s.met.running.With().Set(float64(st.Running))

	for _, ns := range []struct {
		vec *obs.CounterVec
		st  artifact.Stats
	}{{s.met.resultCache, st.ResultCache}, {s.met.compileCache, st.CompileCache}} {
		for _, c := range []struct {
			event string
			v     int64
		}{
			{"requests", ns.st.Requests}, {"mem_hits", ns.st.MemHits}, {"disk_hits", ns.st.DiskHits},
			{"misses", ns.st.Misses}, {"compiles", ns.st.Compiles}, {"rebinds", ns.st.Rebinds},
			{"stores", ns.st.Stores}, {"evicted", ns.st.Evicted}, {"errors", ns.st.Errors},
		} {
			ns.vec.With(c.event).Store(c.v)
		}
	}
}

// logkv emits one structured log line through Config.Logger (a no-op
// when it is nil).
func (s *Server) logkv(msg string, kv ...any) {
	if s.logger != nil {
		s.logger.Info(msg, kv...)
	}
}
