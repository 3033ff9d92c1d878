package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"distda/internal/ir"
	"distda/internal/workloads"
)

// TestSubmitRejectsShardsField: the job API has no "shards" field, and the
// strict decoder names the unknown field in its 400.
func TestSubmitRejectsShardsField(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"workload": "fdtd-2d", "scale": "test", "shards": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`unknown field \"shards\"`)) {
		t.Errorf("error body %s does not name the unknown field", body)
	}
}

// TestSubmitBodyCap: a body over maxSubmitBytes is refused with 413 before
// it is decoded in full.
func TestSubmitBodyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	big := `{"workload": "fdtd-2d", "scale": "test", "kernel": "` +
		strings.Repeat("x", maxSubmitBytes) + `"}`
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", resp.StatusCode, body)
	}
}

// TestShippedKernelsFitSubmitCap: every kernel the suite ships, in its
// ir.Format text, still submits as a custom-kernel job under the body cap.
func TestShippedKernelsFitSubmitCap(t *testing.T) {
	_, ts, release := stubServer(t, Config{Workers: 1, QueueDepth: 128})
	defer close(release)
	for _, scale := range []workloads.Scale{workloads.ScaleTest, workloads.ScaleBench} {
		ws := append(workloads.All(scale),
			workloads.SpMV(scale), workloads.BFSMT(scale), workloads.PathfinderMT(scale))
		for _, w := range ws {
			spec, err := json.Marshal(JobSpec{Workload: w.Name, Scale: scale.String(), Kernel: ir.Format(w.Kernel)})
			if err != nil {
				t.Fatal(err)
			}
			resp, _ := postJob(t, ts, string(spec))
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("%s (%s, %d-byte spec): status = %d", w.Name, scale, len(spec), resp.StatusCode)
			}
		}
	}
}

// TestJournalWithShardsResumes: a journal written before the "shards" field
// was removed still restores its job under the original ID (the journal is
// decoded leniently), and the job renders the bytes of a plain run.
func TestJournalWithShardsResumes(t *testing.T) {
	stateDir := t.TempDir()
	journal := `{
  "version": 1,
  "next_id": 8,
  "jobs": [
    {
      "id": "j000007",
      "spec": {"kind": "run", "tenant": "anonymous", "scale": "test", "engine": "adaptive",
               "shards": 2, "workload": "fdtd-2d", "config": "Dist-DA-F", "threads": 1}
    }
  ]
}`
	if err := os.WriteFile(filepath.Join(stateDir, "journal.json"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Workers: 1, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	j, err := s.Get("j000007")
	if err != nil {
		t.Fatalf("journaled job not restored: %v", err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("restored job did not finish")
	}
	out, state, errMsg := s.Result(j)
	if state != StateDone {
		t.Fatalf("restored job state = %s (%s)", state, errMsg)
	}
	if want := directRun(t, "fdtd-2d", "Dist-DA-F"); !bytes.Equal(out, want) {
		t.Error("restored job output differs from a direct run")
	}
	if s.Stats().Restored != 1 {
		t.Errorf("restored counter = %d, want 1", s.Stats().Restored)
	}
}
