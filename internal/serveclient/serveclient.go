// Package serveclient is a typed Go client for the distda-serve HTTP API.
// It mirrors the wire types from internal/serve (JobSpec in, JobStatus and
// Stats out), maps API error bodies to typed errors, supports
// context cancellation on every call, and reads the server-sent progress
// stream so callers can follow a job without polling.
//
// Typical use:
//
//	c := serveclient.New("http://localhost:8080")
//	st, err := c.Submit(ctx, serve.JobSpec{Workload: "fdtd-2d", Scale: "test"})
//	...
//	fin, err := c.Wait(ctx, st.ID, nil) // follows the SSE stream
//	out, err := c.Result(ctx, fin.ID)
package serveclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"distda/internal/obs"
	"distda/internal/serve"
)

// Sentinel errors. APIError implements Is against these, so callers can
// write errors.Is(err, serveclient.ErrNotFound) without inspecting codes.
var (
	// ErrNotFound: no job with that ID (HTTP 404).
	ErrNotFound = errors.New("serveclient: job not found")
	// ErrBusy: the server applied backpressure — queue full or tenant
	// rate limit (HTTP 429). Retry after a backoff.
	ErrBusy = errors.New("serveclient: server busy")
	// ErrUnavailable: the server is shutting down (HTTP 503).
	ErrUnavailable = errors.New("serveclient: server unavailable")
	// ErrNotDone: the job has not reached a terminal state yet
	// (Result on a queued or running job, HTTP 202).
	ErrNotDone = errors.New("serveclient: job not done")
	// ErrJobFailed: the job reached StateFailed; the APIError message
	// carries the failure reason.
	ErrJobFailed = errors.New("serveclient: job failed")
	// ErrJobCanceled: the job reached StateCanceled (HTTP 410).
	ErrJobCanceled = errors.New("serveclient: job canceled")
)

// APIError is a non-2xx response decoded from the server's error body.
type APIError struct {
	StatusCode int    // HTTP status
	Message    string // the server's "error" field (or raw body)
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serveclient: %s (HTTP %d)", e.Message, e.StatusCode)
}

// Is maps status codes onto the package sentinels.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrNotFound:
		return e.StatusCode == http.StatusNotFound
	case ErrBusy:
		return e.StatusCode == http.StatusTooManyRequests
	case ErrUnavailable:
		return e.StatusCode == http.StatusServiceUnavailable
	case ErrJobCanceled:
		return e.StatusCode == http.StatusGone
	}
	return false
}

// Client talks to one distda-serve instance. It is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying *http.Client (default
// http.DefaultClient). Note the SSE stream in Events/Wait is long-lived, so
// a client with a short Timeout will cut it off — use context deadlines for
// per-call limits instead.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8080"; a trailing slash is tolerated).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// apiErr converts a non-2xx response into an *APIError, decoding the
// server's JSON error body when present.
func apiErr(resp *http.Response, body []byte) error {
	var ae struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(body))
	if json.Unmarshal(body, &ae) == nil && ae.Error != "" {
		msg = ae.Error
	}
	if msg == "" {
		msg = resp.Status
	}
	return &APIError{StatusCode: resp.StatusCode, Message: msg}
}

// do issues a request and returns the response body for 2xx codes.
func (c *Client) do(ctx context.Context, method, path string, in io.Reader) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, in)
	if err != nil {
		return nil, nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp, nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp, body, apiErr(resp, body)
	}
	return resp, body, nil
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	_, body, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// Health checks the liveness probe.
func (c *Client) Health(ctx context.Context) error {
	_, _, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	return err
}

// Submit posts a job. The returned status is the submission snapshot: a
// result-cache hit comes back already StateDone with Cached set.
func (c *Client) Submit(ctx context.Context, spec serve.JobSpec) (serve.JobStatus, error) {
	var st serve.JobStatus
	data, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	_, body, err := c.do(ctx, http.MethodPost, "/api/v1/jobs", bytes.NewReader(data))
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// Status fetches a job's current status.
func (c *Client) Status(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	return st, c.getJSON(ctx, "/api/v1/jobs/"+id, &st)
}

// List returns all jobs in submission order.
func (c *Client) List(ctx context.Context) ([]serve.JobStatus, error) {
	var out []serve.JobStatus
	return out, c.getJSON(ctx, "/api/v1/jobs", &out)
}

// Stats returns the server counters.
func (c *Client) Stats(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	return st, c.getJSON(ctx, "/api/v1/stats", &st)
}

// Ready checks the readiness probe: nil while the server accepts jobs, an
// error satisfying errors.Is(err, ErrUnavailable) once it is draining.
func (c *Client) Ready(ctx context.Context) error {
	_, _, err := c.do(ctx, http.MethodGet, "/readyz", nil)
	return err
}

// Metrics scrapes GET /metrics and parses the Prometheus text exposition
// into a flat map keyed "name" or "name{label=\"value\",...}" (labels as
// the server rendered them). Gauges and counters map to their value;
// histograms contribute their _bucket/_sum/_count series.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	_, body, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return obs.ParseText(bytes.NewReader(body))
}

// Trace fetches a job's lifecycle spans as a Chrome trace_event JSON file
// (load in chrome://tracing or Perfetto).
func (c *Client) Trace(ctx context.Context, id string) ([]byte, error) {
	_, body, err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id+"/trace", nil)
	return body, err
}

// Result returns the rendered output bytes of a finished job. A job that
// is still queued or running returns ErrNotDone; a failed job returns an
// error wrapping ErrJobFailed with the failure message; a canceled job
// returns an error satisfying errors.Is(err, ErrJobCanceled).
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, body, err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id+"/result", nil)
	if err != nil {
		var ae *APIError
		if errors.As(err, &ae) && ae.StatusCode == http.StatusInternalServerError {
			return nil, fmt.Errorf("%w: %s", ErrJobFailed, ae.Message)
		}
		return nil, err
	}
	if resp.StatusCode == http.StatusAccepted {
		return nil, ErrNotDone
	}
	return body, nil
}

// Cancel cancels a queued or running job (idempotent on terminal jobs) and
// returns the resulting status.
func (c *Client) Cancel(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	_, body, err := c.do(ctx, http.MethodDelete, "/api/v1/jobs/"+id, nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// Event is one server-sent event from a job's progress stream.
type Event struct {
	// Name is the event type: "progress" or "done".
	Name string
	// Progress is set for "progress" events.
	Progress obs.Snapshot
	// Status is set for the final "done" event.
	Status *serve.JobStatus
}

// Events follows the job's server-sent event stream, invoking fn for each
// event until the stream ends (the server sends "done" when the job
// reaches a terminal state), fn returns a non-nil error, or ctx is
// canceled. A non-nil error from fn stops the stream and is returned.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return apiErr(resp, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var event string
	var data strings.Builder
	flush := func() error {
		if event == "" && data.Len() == 0 {
			return nil
		}
		ev := Event{Name: event}
		switch event {
		case "progress":
			if err := json.Unmarshal([]byte(data.String()), &ev.Progress); err != nil {
				return fmt.Errorf("serveclient: bad progress event: %w", err)
			}
		case "done":
			var st serve.JobStatus
			if err := json.Unmarshal([]byte(data.String()), &st); err != nil {
				return fmt.Errorf("serveclient: bad done event: %w", err)
			}
			ev.Status = &st
		}
		event = ""
		data.Reset()
		return fn(ev)
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return err
			}
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data.WriteString(strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		// Context cancellation surfaces as a read error on the stream.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return flush()
}

// Wait blocks until the job reaches a terminal state and returns its final
// status. It follows the SSE progress stream, invoking onProgress (when
// non-nil) for each snapshot; if the stream drops before the terminal
// event, it falls back to polling Status.
func (c *Client) Wait(ctx context.Context, id string, onProgress func(obs.Snapshot)) (serve.JobStatus, error) {
	var final *serve.JobStatus
	err := c.Events(ctx, id, func(ev Event) error {
		switch ev.Name {
		case "progress":
			if onProgress != nil {
				onProgress(ev.Progress)
			}
		case "done":
			final = ev.Status
		}
		return nil
	})
	if err != nil {
		return serve.JobStatus{}, err
	}
	if final != nil {
		return *final, nil
	}
	// Stream ended without a terminal event (e.g. server-side write cut):
	// poll until the job settles.
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}
