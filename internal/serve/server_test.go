package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"distda/internal/artifact"
	"distda/internal/cliutil"
	"distda/internal/compiler"
	"distda/internal/exp"
	"distda/internal/ir"
	"distda/internal/obs"
	"distda/internal/sim"
	"distda/internal/workloads"
)

// directRun renders a single run the way distda-run does, independently of
// the server, for byte-identity comparisons.
func directRun(t *testing.T, wname, cname string) []byte {
	t.Helper()
	w, err := cliutil.LookupWorkload(wname, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := cliutil.LookupConfig(cname)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Threads = 1
	kernel := sim.ThreadKernel(w.Kernel, 1)
	var compiled *compiler.Compiled
	if cfg.HasAccel() {
		compiled, err = compiler.Compile(kernel, sim.CompileOptions(cfg))
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := sim.RunPrecompiled(kernel, w.Params, w.NewData(), cfg, compiled)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cliutil.FprintResult(&buf, res)
	return buf.Bytes()
}

// directMatrix renders a selection the way distda-repro does.
func directMatrix(t *testing.T, sel exp.Selection) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := exp.RenderSelection(&buf, workloads.ScaleTest, sel, func() (*exp.Matrix, error) {
		return exp.Build(context.Background(), exp.Options{Scale: workloads.ScaleTest})
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decode %q: %v", data, err)
		}
	}
	return resp, st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func getResult(t *testing.T, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func TestRunJobMatchesBatchCLI(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, st := postJob(t, ts, `{"workload": "fdtd-2d", "config": "Dist-DA-F", "scale": "test"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	if st.Kind != KindRun || st.Equivalent != "distda-run -w fdtd-2d -c Dist-DA-F -scale test" {
		t.Fatalf("status = %+v", st)
	}
	fin := waitDone(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}
	if fin.Progress.Done != 1 || fin.Progress.Total != 1 {
		t.Errorf("progress = %+v, want 1/1", fin.Progress)
	}
	code, body := getResult(t, ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, body)
	}
	if want := directRun(t, "fdtd-2d", "Dist-DA-F"); !bytes.Equal(body, want) {
		t.Errorf("server output differs from batch CLI\n--- server\n%s\n--- direct\n%s", body, want)
	}
}

// TestWorkerMachineReuse: a Workers: 1 server runs different specs back
// to back on its one worker's machine; each reply is byte-identical to a
// fresh server's reply to that spec alone.
func TestWorkerMachineReuse(t *testing.T) {
	specs := []string{
		`{"workload": "cholesky", "config": "Dist-DA-IO", "scale": "test"}`,
		`{"workload": "pagerank", "config": "Mono-CA", "scale": "test"}`,
		`{"workload": "fdtd-2d", "config": "Dist-DA-F", "scale": "test", "ghz": 3}`,
		`{"workload": "cholesky", "config": "OoO", "scale": "test"}`,
	}
	run := func(ts *httptest.Server, spec string) []byte {
		t.Helper()
		_, st := postJob(t, ts, spec)
		if fin := waitDone(t, ts, st.ID); fin.State != StateDone {
			t.Fatalf("%s: state = %s (%s)", spec, fin.State, fin.Error)
		}
		code, body := getResult(t, ts, st.ID)
		if code != http.StatusOK {
			t.Fatalf("%s: result = %d: %s", spec, code, body)
		}
		return body
	}
	_, reused := newTestServer(t, Config{Workers: 1})
	for _, spec := range specs {
		got := run(reused, spec)
		_, fresh := newTestServer(t, Config{Workers: 1})
		if want := run(fresh, spec); !bytes.Equal(got, want) {
			t.Errorf("%s after other specs on one worker differs from a fresh server\n--- reused\n%s\n--- fresh\n%s", spec, got, want)
		}
	}
}

func TestMatrixJobMatchesBatchCLIAndCaches(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	spec := `{"kind": "matrix", "scale": "test", "selection": {"figs": ["7"], "tabs": ["4"], "headline": true}}`
	resp, st := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	if want := "distda-repro -scale test -fig 7 -tab 4 -headline"; st.Equivalent != want {
		t.Errorf("equivalent = %q, want %q", st.Equivalent, want)
	}
	fin := waitDone(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}
	if fin.Progress.Done == 0 {
		t.Errorf("no matrix cells recorded in progress: %+v", fin.Progress)
	}
	_, body := getResult(t, ts, st.ID)
	want := directMatrix(t, exp.Selection{Figs: []string{"7"}, Tabs: []string{"4"}, Headline: true})
	if !bytes.Equal(body, want) {
		t.Errorf("server matrix output differs from batch render")
	}

	// Identical resubmission: answered instantly from the result cache,
	// byte-identically, with the counters to prove nothing recomputed.
	resp2, st2 := postJob(t, ts, spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200 (cache hit)", resp2.StatusCode)
	}
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("resubmit status = %+v, want cached done", st2)
	}
	_, body2 := getResult(t, ts, st2.ID)
	if !bytes.Equal(body2, body) {
		t.Error("cached result differs from computed result")
	}
	stats := s.Stats()
	if stats.CacheHits != 1 || stats.ResultCache.Stores != 1 || stats.ResultCache.MemHits != 1 {
		t.Errorf("stats = cache_hits=%d result_cache=%+v, want 1 hit / 1 store", stats.CacheHits, stats.ResultCache)
	}
}

func TestCustomKernelJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Resubmit fdtd-2d with its own kernel source round-tripped through
	// the parser: identical text, so it must also content-address
	// identically to the stock job.
	w, _ := cliutil.LookupWorkload("fdtd-2d", workloads.ScaleTest)
	spec, _ := json.Marshal(JobSpec{Workload: "fdtd-2d", Scale: "test", Kernel: ir.Format(w.Kernel)})
	_, st := postJob(t, ts, string(spec))
	fin := waitDone(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}
	_, body := getResult(t, ts, st.ID)
	if want := directRun(t, "fdtd-2d", "Dist-DA-F"); !bytes.Equal(body, want) {
		t.Error("custom-kernel job (stock source) output differs from stock run")
	}
	if st.Equivalent != "" {
		t.Errorf("custom-kernel job claimed a CLI equivalent: %q", st.Equivalent)
	}

	// A bad kernel fails at submission, before queueing.
	resp, _ := postJob(t, ts, `{"workload": "fdtd-2d", "scale": "test", "kernel": "kernel broken("}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad kernel submit = %d, want 400", resp.StatusCode)
	}
}

func TestJobReportsBackend(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	// A custom-kernel run job reports its config's resolved backend both in
	// the job JSON and in the per-backend submission counters.
	w, _ := cliutil.LookupWorkload("fdtd-2d", workloads.ScaleTest)
	spec, _ := json.Marshal(JobSpec{Workload: "fdtd-2d", Config: "Dist-DA-F", Scale: "test", Kernel: ir.Format(w.Kernel)})
	_, st := postJob(t, ts, string(spec))
	if st.Backend != "cgra" {
		t.Errorf("custom-kernel Dist-DA-F job backend = %q, want cgra", st.Backend)
	}
	_, stIO := postJob(t, ts, `{"workload": "fdtd-2d", "config": "Dist-DA-IO", "scale": "test"}`)
	if stIO.Backend != "iocore" {
		t.Errorf("Dist-DA-IO job backend = %q, want iocore", stIO.Backend)
	}
	_, stOoO := postJob(t, ts, `{"workload": "fdtd-2d", "config": "OoO", "scale": "test"}`)
	if stOoO.Backend != "" {
		t.Errorf("OoO job backend = %q, want empty", stOoO.Backend)
	}
	_, stMat := postJob(t, ts, `{"kind": "matrix", "scale": "test", "selection": {"headline": true}}`)
	if stMat.Backend != "" {
		t.Errorf("matrix job backend = %q, want empty", stMat.Backend)
	}
	for _, id := range []string{st.ID, stIO.ID, stOoO.ID, stMat.ID} {
		waitDone(t, ts, id)
	}
	stats := s.Stats()
	want := map[string]int64{"cgra": 1, "iocore": 1, "none": 1}
	for name, n := range want {
		if stats.Backends[name] != n {
			t.Errorf("stats.Backends[%q] = %d, want %d (all: %v)", name, stats.Backends[name], n, stats.Backends)
		}
	}
	if len(stats.Backends) != len(want) {
		t.Errorf("stats.Backends = %v, want exactly %v (matrix jobs uncounted)", stats.Backends, want)
	}
	// GET /api/v1/stats carries the same counters over the wire.
	resp, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire Stats
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Backends["cgra"] != 1 || wire.Backends["iocore"] != 1 || wire.Backends["none"] != 1 {
		t.Errorf("wire stats backends = %v", wire.Backends)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"malformed json", `{"workload": `},
		{"unknown field", `{"wrkload": "bfs"}`},
		{"unknown workload", `{"workload": "nope", "scale": "test"}`},
		{"unknown config", `{"workload": "bfs", "config": "nope"}`},
		{"unknown scale", `{"workload": "bfs", "scale": "huge"}`},
		{"removed engine field", `{"workload": "bfs", "engine": "warp"}`},
		{"removed engine field, once valid", `{"workload": "bfs", "engine": "adaptive"}`},
		{"bad ghz", `{"workload": "bfs", "ghz": 7}`},
		{"bad threads", `{"workload": "bfs", "threads": -1}`},
		{"empty matrix", `{"kind": "matrix", "scale": "test"}`},
		{"bad fig", `{"kind": "matrix", "selection": {"figs": ["99"]}}`},
		{"removed params selection", `{"kind": "matrix", "selection": {"params": true}}`},
		{"matrix with workload", `{"kind": "matrix", "workload": "bfs", "all": true}`},
		{"unknown kind", `{"kind": "sweep"}`},
	}
	for _, c := range cases {
		resp, _ := postJob(t, ts, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, resp.StatusCode)
		}
	}
	if st := getStatus(t, ts, "j999999"); st.ID != "" {
		t.Error("unknown job returned a status")
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/j999999/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job result = %d, want 404", resp.StatusCode)
	}
}

// stubServer returns a server whose runner blocks until release is closed.
func stubServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	s, ts := newTestServer(t, cfg)
	s.run = func(ctx context.Context, _ *sim.Runner, p *plan, prog *obs.Progress, spans *obs.SpanList) ([]byte, error) {
		select {
		case <-release:
			return []byte("stub " + p.spec.Workload + "\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s, ts, release
}

func TestQueueFullBackpressure(t *testing.T) {
	_, ts, release := stubServer(t, Config{Workers: 1, QueueDepth: 1})
	defer close(release)
	_, st1 := postJob(t, ts, `{"workload": "fdtd-2d", "scale": "test"}`)
	// Wait for the worker to pick up job 1, so job 2 holds the only slot.
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, st1.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job 1 never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp2, _ := postJob(t, ts, `{"workload": "cholesky", "scale": "test"}`)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2 = %d, want 202", resp2.StatusCode)
	}
	resp3, _ := postJob(t, ts, `{"workload": "adi", "scale": "test"}`)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3 = %d, want 429 (queue full)", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestTenantRateLimit(t *testing.T) {
	now := time.Unix(5000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	_, ts, release := stubServer(t, Config{Workers: 1, Rate: 1, Burst: 1, Now: clock})
	defer close(release)
	resp1, _ := postJob(t, ts, `{"workload": "fdtd-2d", "scale": "test", "tenant": "alice"}`)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp1.StatusCode)
	}
	resp2, _ := postJob(t, ts, `{"workload": "cholesky", "scale": "test", "tenant": "alice"}`)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429 (rate limited)", resp2.StatusCode)
	}
	// Another tenant is unaffected; alice recovers after a second.
	resp3, _ := postJob(t, ts, `{"workload": "cholesky", "scale": "test", "tenant": "bob"}`)
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("bob's submit = %d, want 202", resp3.StatusCode)
	}
	mu.Lock()
	now = now.Add(time.Second)
	mu.Unlock()
	resp4, _ := postJob(t, ts, `{"workload": "adi", "scale": "test", "tenant": "alice"}`)
	if resp4.StatusCode != http.StatusAccepted {
		t.Fatalf("alice after refill = %d, want 202", resp4.StatusCode)
	}
}

// TestProgressClockCoversExecution: a served job's progress.elapsed_s
// counts its execution only — not the time it waited in the queue, and
// not the time since it finished.
func TestProgressClockCoversExecution(t *testing.T) {
	now := time.Unix(5000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	_, ts, release := stubServer(t, Config{Workers: 1, Now: clock})
	defer close(release)
	waitState := func(id string, want JobState) JobStatus {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := getStatus(t, ts, id)
			if st.State == want {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s: state %s, want %s", id, st.State, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	_, first := postJob(t, ts, `{"workload": "fdtd-2d", "scale": "test"}`)
	waitState(first.ID, StateRunning)
	_, second := postJob(t, ts, `{"workload": "cholesky", "scale": "test"}`)
	advance(100 * time.Second) // the second job waits in the queue
	if st := getStatus(t, ts, second.ID); st.State != StateQueued || st.Progress.ElapsedS != 0 {
		t.Fatalf("queued job: state %s, elapsed %vs; want queued, 0", st.State, st.Progress.ElapsedS)
	}
	release <- struct{}{} // the first job finishes; the second starts
	waitState(second.ID, StateRunning)
	advance(5 * time.Second)
	if st := getStatus(t, ts, second.ID); st.Progress.ElapsedS != 5 {
		t.Fatalf("running job elapsed %vs, want 5 (queue wait excluded)", st.Progress.ElapsedS)
	}
	release <- struct{}{}
	waitState(second.ID, StateDone)
	advance(time.Hour)
	if st := getStatus(t, ts, second.ID); st.Progress.ElapsedS != 5 {
		t.Fatalf("finished job elapsed %vs, want 5 (frozen at the end)", st.Progress.ElapsedS)
	}
	if st := getStatus(t, ts, first.ID); st.Progress.ElapsedS != 100 {
		t.Fatalf("first job elapsed %vs, want 100", st.Progress.ElapsedS)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s, ts, release := stubServer(t, Config{Workers: 1, QueueDepth: 8})
	defer close(release)
	_, running := postJob(t, ts, `{"workload": "fdtd-2d", "scale": "test"}`)
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, running.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, queued := postJob(t, ts, `{"workload": "cholesky", "scale": "test"}`)

	del := func(id string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(queued.ID); code != http.StatusOK {
		t.Fatalf("cancel queued = %d", code)
	}
	if st := getStatus(t, ts, queued.ID); st.State != StateCanceled {
		t.Fatalf("queued job state = %s, want canceled", st.State)
	}
	// The canceled queued job never reaches the worker.
	if got := s.queue.len(); got != 0 {
		t.Errorf("queue len = %d after cancel, want 0", got)
	}
	if code := del(running.ID); code != http.StatusOK {
		t.Fatalf("cancel running = %d", code)
	}
	st := waitDone(t, ts, running.ID)
	if st.State != StateCanceled {
		t.Fatalf("running job state = %s, want canceled", st.State)
	}
	if code, _ := getResult(t, ts, running.ID); code != http.StatusGone {
		t.Errorf("canceled job result = %d, want 410", code)
	}
}

// TestCancelRunningFigureJob cancels a bench-scale Fig. 13 job after its
// first cell completes. The figure's cells run under the job's context,
// so the single worker is free again within seconds — a job submitted
// after the cancel finishes long before the figure would have.
func TestCancelRunningFigureJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CellWorkers: 1})
	_, fig := postJob(t, ts, `{"scale": "bench", "selection": {"figs": ["13"]}}`)
	deadline := time.Now().Add(60 * time.Second)
	for getStatus(t, ts, fig.ID).Progress.Done == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no cell completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if total := getStatus(t, ts, fig.ID).Progress.Total; total != 36 {
		t.Errorf("progress total = %d, want Fig. 13's 36 cells", total)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+fig.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	canceledAt := time.Now()
	if st := getStatus(t, ts, fig.ID); st.State != StateCanceled {
		t.Fatalf("figure job state = %s, want canceled", st.State)
	}
	_, next := postJob(t, ts, `{"workload": "bfs", "scale": "test"}`)
	for {
		st := getStatus(t, ts, next.ID)
		if st.State == StateDone {
			break
		}
		if st.State == StateFailed || st.State == StateCanceled {
			t.Fatalf("follow-up job ended %s: %s", st.State, st.Error)
		}
		if time.Since(canceledAt) > 5*time.Second {
			t.Fatalf("worker still busy %v after the figure job was canceled", time.Since(canceledAt))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestIdenticalSubmissionsCoalesce(t *testing.T) {
	s, ts, release := stubServer(t, Config{Workers: 1, QueueDepth: 8})
	_, a := postJob(t, ts, `{"workload": "fdtd-2d", "scale": "test", "tenant": "alice"}`)
	_, b := postJob(t, ts, `{"workload": "fdtd-2d", "scale": "test", "tenant": "bob"}`)
	if a.Key != b.Key {
		t.Fatalf("identical specs got different keys")
	}
	if !b.Coalesced {
		t.Error("second identical submission not coalesced")
	}
	close(release)
	fa, fb := waitDone(t, ts, a.ID), waitDone(t, ts, b.ID)
	if fa.State != StateDone || fb.State != StateDone {
		t.Fatalf("states = %s/%s", fa.State, fb.State)
	}
	_, bodyA := getResult(t, ts, a.ID)
	_, bodyB := getResult(t, ts, b.ID)
	if !bytes.Equal(bodyA, bodyB) {
		t.Error("coalesced jobs returned different bytes")
	}
	stats := s.Stats()
	if stats.Coalesced != 1 {
		t.Errorf("coalesced counter = %d, want 1", stats.Coalesced)
	}
}

func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, st := postJob(t, ts, `{"workload": "bfs", "scale": "test"}`)
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body) // server closes the stream on done
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "event: done") {
		t.Errorf("stream missing done event:\n%s", data)
	}
}

func TestShutdownJournalsAndResumesByteIdentically(t *testing.T) {
	stateDir := t.TempDir()
	cacheDir := t.TempDir()
	sel := exp.Selection{Figs: []string{"7"}}
	spec := JobSpec{Kind: KindMatrix, Scale: "test", Selection: sel}

	s1, err := NewServer(Config{
		Workers:  1,
		Cache:    artifact.New(artifact.Config{Dir: cacheDir}),
		StateDir: stateDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Interpose on the runner so the test knows the build started before
	// shutdown interrupts it.
	started := make(chan struct{})
	real := s1.run
	s1.run = func(ctx context.Context, sr *sim.Runner, p *plan, prog *obs.Progress, spans *obs.SpanList) ([]byte, error) {
		close(started)
		return real(ctx, sr, p, prog, spans)
	}
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	canceled, cancel := context.WithCancel(context.Background())
	cancel() // zero drain budget: abort mid-build and journal
	if err := s1.Shutdown(canceled); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(stateDir, "journal.json")); err != nil {
		t.Fatalf("no journal after interrupted shutdown: %v", err)
	}
	if _, err := s1.Submit(spec); err != ErrShuttingDown {
		t.Fatalf("submit after shutdown = %v", err)
	}

	// A restarted server resumes the journaled job under its original ID
	// and produces the bytes the batch CLI would have.
	s2, err := NewServer(Config{
		Workers:  1,
		Cache:    artifact.New(artifact.Config{Dir: cacheDir}),
		StateDir: stateDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	j2, err := s2.Get(j1.id)
	if err != nil {
		t.Fatalf("restored server lost job %s: %v", j1.id, err)
	}
	select {
	case <-j2.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("resumed job did not finish")
	}
	out, state, errMsg := s2.Result(j2)
	if state != StateDone {
		t.Fatalf("resumed job state = %s (%s)", state, errMsg)
	}
	if want := directMatrix(t, sel); !bytes.Equal(out, want) {
		t.Error("resumed job output differs from batch render")
	}
	if s2.Stats().Restored != 1 {
		t.Errorf("restored counter = %d, want 1", s2.Stats().Restored)
	}
	// Clean shutdown with nothing pending removes the journal.
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(stateDir, "journal.json")); !os.IsNotExist(err) {
		t.Errorf("journal left behind after clean shutdown: %v", err)
	}
}

// TestConcurrentSubmissionsRace hammers the server with concurrent
// submissions, polls and cancels; run under -race this is the
// concurrency-safety proof, and every completed job's bytes must match
// the direct CLI rendering.
func TestConcurrentSubmissionsRace(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	names := []string{"fdtd-2d", "cholesky", "bfs"}
	want := make(map[string][]byte, len(names))
	for _, n := range names {
		want[n] = directRun(t, n, "Dist-DA-F")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := names[i%len(names)]
			j, err := s.Submit(JobSpec{Workload: name, Scale: "test", Tenant: fmt.Sprintf("t%d", i%4)})
			if err != nil {
				errs <- err
				return
			}
			<-j.Done()
			out, state, errMsg := s.Result(j)
			if state != StateDone {
				errs <- fmt.Errorf("%s: state %s (%s)", name, state, errMsg)
				return
			}
			if !bytes.Equal(out, want[name]) {
				errs <- fmt.Errorf("%s: bytes differ from direct run", name)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.Stats(); st.Completed == 0 {
		t.Error("no completions recorded")
	}
}
