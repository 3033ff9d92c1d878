package serveclient

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"distda/internal/obs"
	"distda/internal/serve"
)

func newPair(t *testing.T, cfg serve.Config) (*serve.Server, *Client) {
	t.Helper()
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, New(ts.URL + "/") // trailing slash must be tolerated
}

func TestSubmitWaitResult(t *testing.T) {
	_, c := newPair(t, serve.Config{Workers: 2})
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	st, err := c.Submit(ctx, serve.JobSpec{Workload: "fdtd-2d", Config: "Dist-DA-IO", Scale: "test"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID == "" || st.Kind != serve.KindRun {
		t.Fatalf("submit status = %+v", st)
	}
	if st.Backend != "iocore" {
		t.Errorf("backend = %q, want iocore", st.Backend)
	}
	var snaps []obs.Snapshot
	fin, err := c.Wait(ctx, st.ID, func(s obs.Snapshot) { snaps = append(snaps, s) })
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != serve.StateDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}
	if len(snaps) == 0 {
		t.Error("no progress snapshots streamed")
	}
	out, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if !bytes.Contains(out, []byte("fdtd-2d")) {
		t.Errorf("result does not mention the workload:\n%s", out)
	}
	// Resubmission hits the result cache and the client sees it.
	st2, err := c.Submit(ctx, serve.JobSpec{Workload: "fdtd-2d", Config: "Dist-DA-IO", Scale: "test"})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !st2.Cached || st2.State != serve.StateDone {
		t.Errorf("resubmit = %+v, want cached done", st2)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.CacheHits != 1 || stats.Backends["iocore"] != 2 {
		t.Errorf("stats = hits=%d backends=%v", stats.CacheHits, stats.Backends)
	}
	jobs, err := c.List(ctx)
	if err != nil || len(jobs) != 2 {
		t.Errorf("list = %d jobs, err %v; want 2", len(jobs), err)
	}
}

func TestTypedErrors(t *testing.T) {
	_, c := newPair(t, serve.Config{Workers: 1})
	ctx := context.Background()
	if _, err := c.Status(ctx, "j999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown job status err = %v, want ErrNotFound", err)
	}
	var ae *APIError
	if _, err := c.Submit(ctx, serve.JobSpec{Workload: "no-such-workload", Scale: "test"}); err == nil {
		t.Error("bad submit succeeded")
	} else if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest || ae.Message == "" {
		t.Errorf("bad submit err = %v, want *APIError with 400 + message", err)
	}
	if _, err := c.Submit(ctx, serve.JobSpec{Workload: "fdtd-2d", Kernel: "kernel broken("}); err == nil {
		t.Error("bad kernel accepted")
	}
}

func TestResultNotDoneAndCancel(t *testing.T) {
	// One worker pinned by a slow-ish job keeps the second job queued long
	// enough to observe ErrNotDone and cancel it.
	_, c := newPair(t, serve.Config{Workers: 1})
	ctx := context.Background()
	first, err := c.Submit(ctx, serve.JobSpec{Workload: "cholesky", Config: "OoO", Scale: "test"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(ctx, serve.JobSpec{Workload: "bfs", Config: "OoO", Scale: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(ctx, queued.ID); !errors.Is(err, ErrNotDone) && err != nil {
		// The job may legitimately finish before we ask; only a wrong error
		// type fails the test.
		t.Errorf("queued result err = %v, want ErrNotDone or nil", err)
	}
	st, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if st.State != serve.StateCanceled && st.State != serve.StateDone {
		t.Errorf("canceled state = %s", st.State)
	}
	if st.State == serve.StateCanceled {
		if _, err := c.Result(ctx, queued.ID); !errors.Is(err, ErrJobCanceled) {
			t.Errorf("canceled result err = %v, want ErrJobCanceled", err)
		}
	}
	if _, err := c.Wait(ctx, first.ID, nil); err != nil {
		t.Fatalf("wait first: %v", err)
	}
}

func TestWaitContextCancel(t *testing.T) {
	_, c := newPair(t, serve.Config{Workers: 1})
	bg := context.Background()
	// Pin the worker so the watched job never starts.
	if _, err := c.Submit(bg, serve.JobSpec{Workload: "cholesky", Config: "Dist-DA-F", Scale: "test"}); err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(bg, serve.JobSpec{Workload: "bfs", Config: "Dist-DA-F", Scale: "test"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 200*time.Millisecond)
	defer cancel()
	if _, err := c.Wait(ctx, queued.ID, nil); !errors.Is(err, context.DeadlineExceeded) {
		// A fast machine may finish both jobs inside the deadline.
		if err != nil {
			t.Errorf("wait err = %v, want DeadlineExceeded or success", err)
		}
	}
}
