package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"distda/internal/obs"
)

// scrape fetches /metrics and parses the exposition.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("/metrics = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("content type = %q", ct)
	}
	vals, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return vals
}

// TestObsDifferential is the tentpole guarantee: telemetry is observational
// only. The same job served with a registry + structured logger attached
// and with both disabled returns bit-identical bytes.
func TestObsDifferential(t *testing.T) {
	var logBuf bytes.Buffer
	obsCfg := Config{
		Workers: 1,
		Obs:     obs.New(),
		Logger:  slog.New(slog.NewTextHandler(&logBuf, nil)),
	}
	_, tsObs := newTestServer(t, obsCfg)
	_, tsPlain := newTestServer(t, Config{Workers: 1})

	spec := `{"workload": "fdtd-2d", "config": "Dist-DA-F+A", "scale": "test"}`
	var outputs [][]byte
	for _, ts := range []string{tsObs.URL, tsPlain.URL} {
		resp, err := http.Post(ts+"/api/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		deadline := waitDoneURL(t, ts, st.ID)
		if deadline.State != StateDone {
			t.Fatalf("state = %s (%s)", deadline.State, deadline.Error)
		}
		r2, err := http.Get(ts + "/api/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r2.Body)
		r2.Body.Close()
		outputs = append(outputs, body)
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Errorf("telemetry changed the served bytes\n--- with obs\n%s\n--- without\n%s",
			outputs[0], outputs[1])
	}
}

// waitDoneURL is waitDone for a raw base URL instead of an httptest server.
func waitDoneURL(t *testing.T, base, id string) JobStatus {
	t.Helper()
	for i := 0; i < 6000; i++ {
		resp, err := http.Get(base + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// TestMetricsEndpoint drives a job through the server and checks the key
// series move: per-tenant × per-outcome job counts, queue-wait and stage
// histograms and cache mirrors.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Obs: obs.New()})

	before := scrape(t, ts.URL)
	if before[`distda_jobs_total{outcome="done",tenant="anonymous"}`] != 0 {
		t.Fatalf("fresh server has done jobs: %v", before)
	}

	spec := `{"workload": "pathfinder", "config": "Dist-DA-F+A", "scale": "test"}`
	_, st := postJob(t, ts, spec)
	if fin := waitDone(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}

	after := scrape(t, ts.URL)
	for key, want := range map[string]float64{
		`distda_jobs_total{outcome="submitted",tenant="anonymous"}`: 1,
		`distda_jobs_total{outcome="done",tenant="anonymous"}`:      1,
		`distda_job_queue_wait_seconds_count{tenant="anonymous"}`:   1,
		`distda_job_stage_seconds_count{stage="executing"}`:         1,
		`distda_job_stage_seconds_count{stage="simulate"}`:          1,
		`distda_job_stage_seconds_count{stage="rendering"}`:         1,
	} {
		if after[key] != want {
			t.Errorf("%s = %v, want %v", key, after[key], want)
		}
	}
	if _, ok := after["distda_queue_depth"]; !ok {
		t.Error("no distda_queue_depth gauge")
	}
	if after[`distda_result_cache_events_total{event="stores"}`] != 1 {
		t.Errorf("result cache stores = %v, want 1",
			after[`distda_result_cache_events_total{event="stores"}`])
	}

	// An identical resubmission is a result-cache hit, not a new execution.
	_, st2 := postJob(t, ts, spec)
	if st2.State != StateDone {
		t.Fatalf("resubmit state = %s, want done (cache hit)", st2.State)
	}
	final := scrape(t, ts.URL)
	if final[`distda_jobs_total{outcome="cache_hit",tenant="anonymous"}`] != 1 {
		t.Errorf("cache_hit count = %v, want 1",
			final[`distda_jobs_total{outcome="cache_hit",tenant="anonymous"}`])
	}
	if final[`distda_jobs_total{outcome="done",tenant="anonymous"}`] != 1 {
		t.Error("cache hit incremented the done count")
	}
}

// TestMetricsDisabled: without a registry the endpoint 404s rather than
// serving an empty page that scrapers would mistake for healthy-but-idle.
func TestMetricsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics without registry = %d, want 404", resp.StatusCode)
	}
}

// TestReadyzFlipsOnDrain: /readyz answers 200 while accepting and 503 the
// moment a graceful drain begins, while /healthz stays 200 (the process is
// alive either way).
func TestReadyzFlipsOnDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d", code)
	}
	s.StartDrain()
	s.StartDrain() // idempotent
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after StartDrain = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz after StartDrain = %d, want 200", code)
	}
	if _, err := s.Submit(JobSpec{Workload: "bfs", Scale: "test"}); err != ErrShuttingDown {
		t.Errorf("submit while draining = %v, want ErrShuttingDown", err)
	}
	// Shutdown after StartDrain still runs the full drain + journal path.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown after drain: %v", err)
	}
}

// TestJobSpans: executed jobs expose their lifecycle spans in the status
// JSON (TestJobTraceContract covers the trace export); cache hits carry the
// short-circuit marker instead of execution stages.
func TestJobSpans(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Obs: obs.New()})
	spec := `{"workload": "bfs", "scale": "test"}`
	_, st := postJob(t, ts, spec)
	fin := waitDone(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}

	names := make(map[string]bool)
	for _, sp := range fin.Spans {
		names[sp.Name] = true
		if sp.Name == "queued" || sp.Name == "executing" {
			if sp.End.IsZero() || sp.End.Before(sp.Start) {
				t.Errorf("span %s not closed properly: %+v", sp.Name, sp)
			}
		}
	}
	for _, want := range []string{"received", "queued", "executing", "simulate", "rendering"} {
		if !names[want] {
			t.Errorf("done job missing span %q (have %v)", want, fin.Spans)
		}
	}

	// Cache hit: the resubmission marks the short-circuit and never queues.
	_, st2 := postJob(t, ts, spec)
	hit := getStatus(t, ts, st2.ID)
	hitNames := make(map[string]bool)
	for _, sp := range hit.Spans {
		hitNames[sp.Name] = true
	}
	if !hitNames["received"] || !hitNames["cache_hit"] {
		t.Errorf("cache-hit spans = %+v, want received + cache_hit", hit.Spans)
	}
	if hitNames["queued"] || hitNames["executing"] {
		t.Errorf("cache-hit job has execution spans: %+v", hit.Spans)
	}
}

// TestJobTraceContract: /api/v1/jobs/{id}/trace, read the way the bench
// harness reads it (name, dur in µs, absolute start in args.start), gives
// back every closed lifecycle span of the job's status with its name, its
// start and its duration to the µs; ts is the start in µs from the first
// span. Metadata ("M") records carry no span.
func TestJobTraceContract(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, st := postJob(t, ts, `{"workload": "bfs", "scale": "test"}`)
	fin := waitDone(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Args struct {
			Start string `json:"start"`
		} `json:"args"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	type span struct {
		name    string
		start   time.Time
		ts, dur float64 // µs
	}
	var got []span
	for _, ev := range events {
		if ev.Ph == "M" {
			continue
		}
		start, err := time.Parse(time.RFC3339Nano, ev.Args.Start)
		if err != nil {
			t.Fatalf("event %q: args.start: %v", ev.Name, err)
		}
		got = append(got, span{ev.Name, start, ev.Ts, ev.Dur})
	}
	if len(got) != len(fin.Spans) {
		t.Fatalf("trace has %d spans, status has %d: %+v", len(got), len(fin.Spans), fin.Spans)
	}
	epoch := fin.Spans[0].Start
	for _, sp := range fin.Spans {
		if sp.Start.Before(epoch) {
			epoch = sp.Start
		}
	}
	within := func(us float64, d time.Duration) bool { return math.Abs(us*1e3-float64(d)) < 1e3 }
	closed := 0
	for _, want := range fin.Spans {
		if want.End.IsZero() {
			continue
		}
		closed++
		i := slices.IndexFunc(got, func(g span) bool { return g.name == want.Name && g.start.Equal(want.Start) })
		if i < 0 {
			t.Errorf("span %q at %v missing from the trace", want.Name, want.Start)
			continue
		}
		if g := got[i]; !within(g.dur, want.Duration()) || !within(g.ts, want.Start.Sub(epoch)) {
			t.Errorf("span %q: trace ts %gµs dur %gµs, want %v and %v", want.Name, g.ts, g.dur, want.Start.Sub(epoch), want.Duration())
		}
		got = slices.Delete(got, i, i+1)
	}
	if closed < 5 {
		t.Errorf("job has %d closed spans, want at least received, queued, executing, simulate, rendering", closed)
	}
}
