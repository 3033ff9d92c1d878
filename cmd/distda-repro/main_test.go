package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRunValidation table-tests the CLI front end: every -fig / -tab
// selection is validated before anything is computed, so an unknown name
// exits non-zero with an empty stdout — never a partial set of tables.
func TestRunValidation(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		exit      int
		wantErr   string // substring of stderr
		wantOut   string // substring of stdout
		wantNoOut bool   // stdout must be empty
	}{
		{name: "no selection", args: nil, exit: 2, wantNoOut: true},
		{name: "unknown flag", args: []string{"-bogus"}, exit: 2, wantNoOut: true},
		{name: "unknown scale", args: []string{"-scale", "huge", "-tab", "3"},
			exit: 1, wantErr: `unknown scale "huge"`, wantNoOut: true},
		{name: "unknown figure", args: []string{"-fig", "99"},
			exit: 1, wantErr: `unknown figure "99"`, wantNoOut: true},
		{name: "unknown table", args: []string{"-tab", "9"},
			exit: 1, wantErr: `unknown table "9"`, wantNoOut: true},
		// The critical partial-output case: a valid selection listed before
		// an invalid one must not print before validation rejects the run.
		{name: "valid tab then unknown fig", args: []string{"-tab", "3", "-fig", "nope"},
			exit: 1, wantErr: `unknown figure "nope"`, wantNoOut: true},
		{name: "valid fig then unknown tab", args: []string{"-fig", "7", "-tab", "nope"},
			exit: 1, wantErr: `unknown table "nope"`, wantNoOut: true},
		{name: "params", args: []string{"-params"}, exit: 2, wantNoOut: true}, // removed: -tab 3 prints Table III
		{name: "tab 3", args: []string{"-tab", "3"}, exit: 0, wantOut: "Table III"},
		{name: "area", args: []string{"-area"}, exit: 0},
		{name: "metrics flag removed", args: []string{"-fig", "7", "-metrics"}, exit: 2, wantNoOut: true},
		{name: "hang-cell flag removed", args: []string{"-fig", "7", "-hang-cell", "bfs/OoO"}, exit: 2, wantNoOut: true},
		{name: "stats swallows a flag", args: []string{"-fig", "7", "-scale", "test", "-stats", "-breakdown"},
			exit: 2, wantErr: `-stats takes a path, got "-breakdown"`, wantNoOut: true},
		{name: "folded swallows a flag", args: []string{"-fig", "7", "-folded", "-breakdown"},
			exit: 2, wantErr: `-folded takes a path`, wantNoOut: true},
		{name: "trace-dir swallows a flag", args: []string{"-fig", "7", "-trace-dir", "-all"},
			exit: 2, wantErr: `-trace-dir takes a path`, wantNoOut: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, &stdout, &stderr)
			if got != tc.exit {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, got, tc.exit, stderr.String())
			}
			if tc.wantNoOut && stdout.Len() != 0 {
				t.Errorf("run(%v) wrote to stdout on failure:\n%s", tc.args, stdout.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("run(%v) stderr = %q, want substring %q", tc.args, stderr.String(), tc.wantErr)
			}
			if tc.wantOut != "" && !strings.Contains(stdout.String(), tc.wantOut) {
				t.Errorf("run(%v) stdout = %q, want substring %q", tc.args, stdout.String(), tc.wantOut)
			}
		})
	}
}

// TestDegradedCellExitsThree induces a per-cell timeout through the
// cellHook test hook: the hung cell renders n/a, every other cell still
// prints, and the process exits with the distinct degraded code 3.
func TestDegradedCellExitsThree(t *testing.T) {
	cellHook = func(ctx context.Context, workload, config string) error {
		if workload == "fdtd-2d" && config == "Dist-DA-IO" {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	defer func() { cellHook = nil }()
	var stdout, stderr bytes.Buffer
	got := run([]string{"-fig", "7", "-scale", "test",
		"-cell-timeout", "1s", "-parallel", "4"}, &stdout, &stderr)
	if got != 3 {
		t.Fatalf("exit = %d, want 3 (degraded)\nstderr: %s", got, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "n/a") {
		t.Errorf("stdout lacks the n/a cell:\n%s", out)
	}
	if !strings.Contains(out, "Fig. 7") {
		t.Errorf("degradation suppressed the table:\n%s", out)
	}
	// The other workloads' Dist-DA-IO column still carries numbers: count
	// rows — every workload row must be present.
	if !strings.Contains(out, "bfs") || !strings.Contains(out, "geomean") {
		t.Errorf("table lost healthy rows:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "degraded") {
		t.Errorf("stderr = %q, want a degradation notice", stderr.String())
	}
}

// TestCacheDirRecompilesNothing runs the same matrix selection twice over
// one -cache-dir: the second process-equivalent run must serve every
// artifact from the disk store (artifact.compiles = 0 in its -stats dump).
func TestCacheDirRecompilesNothing(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	statsPath := filepath.Join(dir, "stats.txt")
	runOnce := func() string {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-tab", "4", "-scale", "test", "-stats", statsPath,
			"-cache-dir", filepath.Join(dir, "cache"), "-checkpoint", ckpt}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
		}
		dump, err := os.ReadFile(statsPath)
		if err != nil {
			t.Fatal(err)
		}
		return string(dump)
	}
	first := runOnce()
	if v := statValue(t, first, "artifact.compiles"); v == "0" {
		t.Fatal("cold run compiled nothing — cache test is vacuous")
	}
	second := runOnce()
	// The checkpoint completed, so the resumed run executes zero cells and
	// issues zero compile requests; without the checkpoint it would disk-hit.
	if v := statValue(t, second, "artifact.compiles"); v != "0" {
		t.Errorf("warm run compiled %s artifacts, want 0\n%s", v, second)
	}
}

// statValue extracts one statistic's value from a stats dump.
func statValue(t *testing.T, dump, name string) string {
	t.Helper()
	for _, line := range strings.Split(dump, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == name {
			return f[1]
		}
	}
	t.Fatalf("stat %s not found in dump:\n%s", name, dump)
	return ""
}

// TestMetricsWithoutMatrixWarns checks that asking for the stats dump
// (which carries the simulated cells' metrics) with only static output
// exits cleanly and explains that nothing was collected.
func TestMetricsWithoutMatrixWarns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-tab", "3", "-stats", filepath.Join(t.TempDir(), "stats.txt")}, &stdout, &stderr); got != 0 {
		t.Fatalf("run exited %d", got)
	}
	if !strings.Contains(stderr.String(), "no simulated output") {
		t.Errorf("stderr = %q, want a nothing-simulated warning", stderr.String())
	}
}

// TestAllParallelIdentical: -all stdout is byte-identical at -parallel 1,
// 2 and 4 — figure cells share the worker pool with the matrix.
func TestAllParallelIdentical(t *testing.T) {
	var want string
	for _, p := range []string{"1", "2", "4"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-all", "-scale", "test", "-parallel", p}, &stdout, &stderr); code != 0 {
			t.Fatalf("-parallel %s: exit %d\nstderr: %s", p, code, stderr.String())
		}
		if p == "1" {
			want = stdout.String()
			continue
		}
		if stdout.String() != want {
			t.Errorf("-all -parallel %s stdout differs from -parallel 1", p)
		}
	}
}

// TestTraceDirOneFilePerCell: -all -trace-dir writes exactly one trace per
// planned cell (the hook sees each once), no two cells share a name, and
// matrix cells keep their <workload>-<config> names.
func TestTraceDirOneFilePerCell(t *testing.T) {
	var cells atomic.Int64
	cellHook = func(context.Context, string, string) error {
		cells.Add(1)
		return nil
	}
	defer func() { cellHook = nil }()
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-all", "-scale", "test", "-parallel", "2", "-trace-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(files)) != cells.Load() {
		t.Errorf("%d trace files for %d planned cells", len(files), cells.Load())
	}
	names := map[string]bool{}
	for _, f := range files {
		names[f.Name()] = true
	}
	for _, want := range []string{"fdtd-2d-Dist-DA-F.trace.json", "disparity-OoO.trace.json", "fig13-00-disparity-Dist-DA-IO@1GHz.trace.json"} {
		if !names[want] {
			t.Errorf("no trace file %s", want)
		}
	}
}
