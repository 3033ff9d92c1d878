package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunExitCodes table-tests the flag parser and name resolution: every
// unknown name must fail with a non-zero exit, a clear stderr message and
// nothing on stdout. An argument "$STATS" stands for a fresh dump path.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		exit      int
		wantErr   string // substring of stderr
		wantOut   string // substring of stdout
		wantNoOut bool   // stdout must be empty
		wantStats string // substring of the -stats dump at "$STATS"
	}{
		{name: "no args", args: nil, exit: 2, wantNoOut: true},
		{name: "unknown flag", args: []string{"-bogus"}, exit: 2, wantNoOut: true},
		{name: "unknown workload", args: []string{"-w", "nope", "-scale", "test"},
			exit: 1, wantErr: "nope", wantNoOut: true},
		{name: "unknown workload long form", args: []string{"-workload", "nope", "-scale", "test"},
			exit: 1, wantErr: "nope", wantNoOut: true},
		{name: "unknown config", args: []string{"-w", "bfs", "-c", "Turbo", "-scale", "test"},
			exit: 1, wantErr: `unknown configuration "Turbo"`, wantNoOut: true},
		{name: "unknown config long form", args: []string{"-w", "bfs", "-config", "Turbo", "-scale", "test"},
			exit: 1, wantErr: `unknown configuration "Turbo"`, wantNoOut: true},
		{name: "unknown scale", args: []string{"-w", "bfs", "-scale", "huge"},
			exit: 1, wantErr: `unknown scale "huge"`, wantNoOut: true},
		{name: "list", args: []string{"-list"}, exit: 0, wantOut: "fdtd-2d"},
		{name: "run short flags", args: []string{"-w", "pathfinder", "-c", "Dist-DA-IO", "-scale", "test"},
			exit: 0, wantOut: "validated     true"},
		{name: "run long flags case-insensitive", args: []string{"-workload", "pathfinder", "-config", "dist-da-io", "-scale", "test"},
			exit: 0, wantOut: "validated     true"},
		{name: "metrics in stats dump", args: []string{"-w", "pathfinder", "-c", "dist-da-io", "-scale", "test", "-stats", "$STATS"},
			exit: 0, wantOut: "validated     true", wantStats: "\nau.combined_accessors "},
		{name: "metrics flag removed", args: []string{"-w", "pathfinder", "-scale", "test", "-metrics"},
			exit: 2, wantNoOut: true},
		{name: "stats swallows a flag", args: []string{"-w", "pathfinder", "-scale", "test", "-stats", "-breakdown"},
			exit: 2, wantErr: `-stats takes a path, got "-breakdown"`, wantNoOut: true},
		{name: "folded swallows a flag", args: []string{"-w", "pathfinder", "-scale", "test", "-folded", "-breakdown"},
			exit: 2, wantErr: `-folded takes a path`, wantNoOut: true},
		{name: "trace swallows a flag", args: []string{"-w", "pathfinder", "-scale", "test", "-trace", "-stats=x"},
			exit: 2, wantErr: `-trace takes a path`, wantNoOut: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			statsPath := filepath.Join(t.TempDir(), "stats.txt")
			args := append([]string(nil), tc.args...)
			for i, a := range args {
				if a == "$STATS" {
					args[i] = statsPath
				}
			}
			var stdout, stderr bytes.Buffer
			got := run(args, &stdout, &stderr)
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
			if tc.wantStats != "" {
				dump, err := os.ReadFile(statsPath)
				if err != nil || !strings.Contains(string(dump), tc.wantStats) {
					t.Errorf("run(%v) stats dump lacks %q (err %v):\n%s", tc.args, tc.wantStats, err, dump)
				}
			}
		})
	}
}

// TestLongShortAliasesIdentical checks -w/-c and -workload/-config produce
// byte-identical output for the same run (alias resolution must not change
// behavior).
func TestLongShortAliasesIdentical(t *testing.T) {
	var short, long bytes.Buffer
	if run([]string{"-w", "pathfinder", "-c", "Dist-DA-IO", "-scale", "test"}, &short, new(bytes.Buffer)) != 0 {
		t.Fatal("short-flag run failed")
	}
	if run([]string{"-workload", "pathfinder", "-config", "dist-da-io", "-scale", "test"}, &long, new(bytes.Buffer)) != 0 {
		t.Fatal("long-flag run failed")
	}
	if short.String() != long.String() {
		t.Errorf("alias outputs differ:\nshort:\n%s\nlong:\n%s", short.String(), long.String())
	}
}

// TestTraceFlagWritesValidChromeJSON runs a traced simulation and checks
// the exported file parses as a Chrome trace_event array with at least five
// distinct component tracks, and that tracing does not perturb the printed
// result.
func TestTraceFlagWritesValidChromeJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var traced, plain bytes.Buffer
	if got := run([]string{"-workload", "fdtd-2d", "-config", "dist-da-io", "-scale", "test", "-trace", path},
		&traced, new(bytes.Buffer)); got != 0 {
		t.Fatalf("traced run exited %d", got)
	}
	if got := run([]string{"-w", "fdtd-2d", "-c", "Dist-DA-IO", "-scale", "test"},
		&plain, new(bytes.Buffer)); got != 0 {
		t.Fatalf("plain run exited %d", got)
	}
	if traced.String() != plain.String() {
		t.Errorf("-trace perturbed the printed result:\ntraced:\n%s\nplain:\n%s", traced.String(), plain.String())
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace file is not a JSON event array: %v", err)
	}
	tracks := map[float64]bool{}
	names := map[string]bool{}
	for _, e := range events {
		ph, _ := e["ph"].(string)
		switch ph {
		case "X", "i":
			if tid, ok := e["tid"].(float64); ok {
				tracks[tid] = true
			}
		case "M":
			if e["name"] == "thread_name" {
				if args, ok := e["args"].(map[string]any); ok {
					if n, ok := args["name"].(string); ok {
						names[n] = true
					}
				}
			}
		}
	}
	if len(tracks) < 5 {
		t.Errorf("trace has %d component tracks, want >= 5", len(tracks))
	}
	for _, want := range []string{"host", "engine"} {
		if !names[want] {
			t.Errorf("trace missing %q track (have %v)", want, names)
		}
	}
}

// TestTracePins pins the exact bytes of the Chrome trace writer: the
// SHA-256 of `distda-run -scale test -workload pathfinder -trace` recorded
// at c5ca3fa, for a run with 558 events on 11 tracks and for the OoO run,
// whose empty trace takes the writer's trace_end path.
func TestTracePins(t *testing.T) {
	for cfg, want := range map[string]string{
		"Dist-DA-IO": "8065084579bac82478e29ae38d33a1cd633054f79b941edfe8621120389d72b3",
		"OoO":        "4284f2ec8afa5d32fb0484f906646d732c9c9f85918a3e7f088eea8066538638",
	} {
		t.Run(cfg, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.json")
			if got := run([]string{"-scale", "test", "-workload", "pathfinder", "-c", cfg, "-trace", path},
				new(bytes.Buffer), new(bytes.Buffer)); got != 0 {
				t.Fatalf("run exited %d", got)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("trace SHA-256 = %s, want %s", got, want)
			}
		})
	}
}
