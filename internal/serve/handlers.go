package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"distda/internal/cliutil"
	"distda/internal/engine"
	"distda/internal/obs"
	"distda/internal/trace"
)

// Handler returns the server's HTTP API.
//
//	POST   /api/v1/jobs             submit a JobSpec, returns 202 + JobStatus
//	GET    /api/v1/jobs             list all jobs (submission order)
//	GET    /api/v1/jobs/{id}        job status (state, progress, timings, spans)
//	GET    /api/v1/jobs/{id}/result rendered output once done (text/plain)
//	GET    /api/v1/jobs/{id}/events server-sent progress events until terminal
//	GET    /api/v1/jobs/{id}/trace  lifecycle spans as a Chrome trace_event file
//	DELETE /api/v1/jobs/{id}        cancel a queued or running job
//	GET    /api/v1/stats            server counters + cache statistics
//	GET    /metrics                 Prometheus text exposition (wall-clock)
//	GET    /healthz                 liveness probe
//	GET    /readyz                  readiness probe (503 once draining)
//	/progress, /debug/vars, /debug/pprof/*  live introspection (cliutil mux)
//
// Backpressure surfaces as HTTP 429 (queue full or tenant rate limit,
// distinguished by the error body) and shutdown as 503. A submission body
// over maxSubmitBytes is refused with 413.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	intro := cliutil.NewIntrospectionMux(nil)
	mux.Handle("/progress", intro)
	mux.Handle("/debug/", intro)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// maxSubmitBytes caps a POST /api/v1/jobs body. The largest legitimate
// spec carries a custom kernel in ir.Format text, a few KiB for any
// shipped kernel; the cap keeps a client from making the server buffer an
// unbounded body.
const maxSubmitBytes = 1 << 20

// decodeSpec reads one JobSpec from a submission body, refusing fields the
// API does not know.
func decodeSpec(body io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("job spec exceeds %d bytes", tooBig.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
		return
	}
	j, err := s.Submit(spec)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrRateLimited):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrShuttingDown):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	default:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st := s.Status(j)
	w.Header().Set("Location", "/api/v1/jobs/"+st.ID)
	code := http.StatusAccepted
	if st.State == StateDone {
		code = http.StatusOK // result cache hit: already complete
	}
	writeJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, s.Status(j))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if err := s.Cancel(j.id); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, s.Status(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	out, state, errMsg := s.Result(j)
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(out)
	case StateFailed:
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("job failed: %s", errMsg))
	case StateCanceled:
		writeErr(w, http.StatusGone, fmt.Errorf("job canceled"))
	default:
		// Still queued or running: point the client at the status view.
		writeJSON(w, http.StatusAccepted, s.Status(j))
	}
}

// handleEvents streams job progress as server-sent events: one "progress"
// event per snapshot change, then a final "done" event with the terminal
// status. Clients: curl -N .../events
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	send := func(event string, v any) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		if canFlush {
			fl.Flush()
		}
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	var last string
	for {
		st := s.Status(j)
		if cur, _ := json.Marshal(st.Progress); string(cur) != last {
			last = string(cur)
			send("progress", st.Progress)
		}
		select {
		case <-j.Done():
			send("done", s.Status(j))
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics renders the wall-clock telemetry registry in Prometheus
// text exposition format. Scrape-time mirrors (queue gauges, cache
// counters) are refreshed first.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.obsReg == nil {
		http.Error(w, "telemetry disabled (Config.Obs is nil)", http.StatusNotFound)
		return
	}
	s.syncObs()
	w.Header().Set("Content-Type", obs.ContentType)
	_ = s.obsReg.WritePrometheus(w)
}

// handleReady reports readiness: 200 while accepting jobs, 503 once a
// graceful drain has begun — load balancers stop routing new work while
// in-flight jobs finish.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleTrace exports a job's lifecycle spans as a Chrome trace_event
// JSON file (load in chrome://tracing or Perfetto), written by the
// simulator's trace writer (see spanTrace).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st := s.Status(j)
	w.Header().Set("Content-Type", "application/json")
	_ = spanTrace(st.ID, st.Spans).WriteChromeJSON(w)
}

// spanTrace puts a job's wall-clock spans on one "lifecycle" track of a
// tracer, timed from the earliest start. The tracer's tick is 1/6 ns, so
// a wall-clock nanosecond is engine.BaseGHz ticks and the writer's µs
// hold for both clocks. Each span carries its absolute start in
// args.start (RFC 3339, ns); an open span has zero duration.
func spanTrace(id string, spans []obs.Span) *trace.Tracer {
	tr := trace.New()
	tr.Process = "distda-serve job " + id + " (wall clock)"
	track := tr.Component("lifecycle")
	var epoch time.Time
	for _, sp := range spans {
		if epoch.IsZero() || sp.Start.Before(epoch) {
			epoch = sp.Start
		}
	}
	for _, sp := range spans {
		track.Span(sp.Name, int64(sp.Start.Sub(epoch))*engine.BaseGHz, int64(sp.Duration())*engine.BaseGHz,
			trace.KV{K: "start", V: sp.Start.Format(time.RFC3339Nano)})
	}
	return tr
}
