package cliutil

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"distda/internal/obs"
	"distda/internal/profile"
)

func TestIntrospectionMuxProgress(t *testing.T) {
	prog := obs.NewProgress()
	prog.Record(obs.CellStatus{Workload: "fdtd-2d", Config: "Dist-DA-F", Total: 4, Dur: 2 * time.Second})
	srv := httptest.NewServer(NewIntrospectionMux(prog))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Total != 4 || s.Done != 1 || s.Last.Workload != "fdtd-2d" {
		t.Errorf("snapshot = %+v", s)
	}

	// The nil-progress mux (single-run tools) serves the zero snapshot
	// rather than erroring.
	nilSrv := httptest.NewServer(NewIntrospectionMux(nil))
	defer nilSrv.Close()
	resp2, err := http.Get(nilSrv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var z obs.Snapshot
	if err := json.NewDecoder(resp2.Body).Decode(&z); err != nil {
		t.Fatal(err)
	}
	if z != (obs.Snapshot{}) {
		t.Errorf("nil-progress snapshot = %+v", z)
	}
}

func TestIntrospectionMuxDebugRoutes(t *testing.T) {
	srv := httptest.NewServer(NewIntrospectionMux(nil))
	defer srv.Close()
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

func TestServeIntrospectionBindsEphemeralPort(t *testing.T) {
	intro, err := ServeIntrospection("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	bound := intro.Addr()
	if !strings.HasPrefix(bound, "127.0.0.1:") || strings.HasSuffix(bound, ":0") {
		t.Fatalf("bound address = %q, want resolved 127.0.0.1 port", bound)
	}
	resp, err := http.Get("http://" + bound + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}

	// Graceful shutdown: the listener closes and further requests fail; a
	// second Shutdown (and a nil handle) are no-ops.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := intro.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + bound + "/progress"); err == nil {
		t.Error("request after Shutdown succeeded, want connection error")
	}
	if err := intro.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
	var nilIntro *Introspection
	if err := nilIntro.Shutdown(ctx); err != nil {
		t.Errorf("nil Shutdown: %v", err)
	}
	if nilIntro.Addr() != "" {
		t.Errorf("nil Addr = %q", nilIntro.Addr())
	}
}

func TestWriteFile(t *testing.T) {
	p := profile.New()
	p.AddRun(100)
	r := p.Region("k", "r0")
	r.AddLaunch(1, 2, 3, 4)
	dir := t.TempDir()

	statsPath := filepath.Join(dir, "stats.txt")
	if err := WriteFile(statsPath, p.WriteStats); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "Begin Simulation Statistics") {
		t.Errorf("stats file missing header:\n%s", b)
	}

	foldedPath := filepath.Join(dir, "folded.txt")
	if err := WriteFile(foldedPath, p.WriteFolded); err != nil {
		t.Fatal(err)
	}
	f, err := os.ReadFile(foldedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(f), "k;r0;[queue] 2") {
		t.Errorf("folded file missing stack:\n%s", f)
	}
}
