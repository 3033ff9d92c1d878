package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilTracerIsSafe exercises every recording entry point on the disabled
// (nil) fast path.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	c := tr.Component("engine")
	if c != nil {
		t.Fatal("nil tracer must hand out nil components")
	}
	c.Span("x", 0, 10)
	c.Instant("y", 5)
	s := c.At(100)
	if s.Enabled() {
		t.Fatal("scope from nil component must be disabled")
	}
	s.Span("x", 0, 10, KV{"k", 1})
	s.Instant("y", 5)
	if tr.Events() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must count nothing")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil tracer export = %q", buf.String())
	}
	if tr.Summary() != "trace: disabled" {
		t.Fatalf("summary = %q", tr.Summary())
	}
}

// decodeTrace parses an exported trace into raw event maps.
func decodeTrace(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var evs []map[string]any
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, data)
	}
	return evs
}

func TestChromeExport(t *testing.T) {
	tr := New()
	eng := tr.Component("engine")
	au := tr.Component("fill:A")
	eng.Span("run", 0, 600, KV{"cycles", int64(600)})
	au.At(60).Span("fetch", 0, 120) // offset scope: lands at 60
	au.Instant("close", 300, KV{"obj", "A"})
	if tr.Events() != 3 {
		t.Fatalf("events = %d", tr.Events())
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	evs := decodeTrace(t, buf.Bytes())

	// Metadata: process_name plus thread_name/thread_sort_index per track.
	names := map[string]int{}
	tracks := map[string]bool{}
	for _, e := range evs {
		names[e["ph"].(string)]++
		if e["ph"] == "M" && e["name"] == "thread_name" {
			tracks[e["args"].(map[string]any)["name"].(string)] = true
		}
	}
	if !tracks["engine"] || !tracks["fill:A"] {
		t.Fatalf("missing thread_name metadata: %v", tracks)
	}
	if names["X"] != 2 || names["i"] != 1 {
		t.Fatalf("event phase counts = %v", names)
	}

	// Clock mapping: 600 base cycles = 0.1 us (1/6 ns tick).
	for _, e := range evs {
		if e["ph"] == "X" && e["name"] == "run" {
			if ts := e["ts"].(float64); ts != 0 {
				t.Fatalf("run ts = %g", ts)
			}
			if dur := e["dur"].(float64); dur != 0.1 {
				t.Fatalf("run dur = %g us, want 0.1", dur)
			}
			if c := e["args"].(map[string]any)["cycles"].(float64); c != 600 {
				t.Fatalf("args lost: %v", e["args"])
			}
		}
		if e["ph"] == "X" && e["name"] == "fetch" {
			if ts := e["ts"].(float64); ts != 0.01 {
				t.Fatalf("offset scope ts = %g us, want 0.01", ts)
			}
		}
	}
}

// TestProcessName: the writer names the process after Tracer.Process, and
// after the simulator's base tick when it is empty.
func TestProcessName(t *testing.T) {
	for process, want := range map[string]string{
		"":                 "distda-sim (base tick = 1/6 ns)",
		"distda-serve job": "distda-serve job",
	} {
		tr := New()
		tr.Process = process
		var buf bytes.Buffer
		if err := tr.WriteChromeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		e := decodeTrace(t, buf.Bytes())[0]
		if e["name"] != "process_name" || e["args"].(map[string]any)["name"] != want {
			t.Errorf("Process %q: first record = %v, want process_name %q", process, e, want)
		}
	}
}

// TestExportIsSorted verifies the merge-on-flush ordering: events from
// different component buffers interleave by start cycle.
func TestExportIsSorted(t *testing.T) {
	tr := New()
	a := tr.Component("a")
	b := tr.Component("b")
	a.Instant("a2", 200)
	a.Instant("a0", 0)
	b.Instant("b1", 100)
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, e := range decodeTrace(t, buf.Bytes()) {
		if e["ph"] == "i" {
			order = append(order, e["name"].(string))
		}
	}
	// Same-component buffer order is preserved; cross-component merge is by
	// start cycle (a2 recorded first but starts last).
	want := []string{"a0", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventCap(t *testing.T) {
	tr := New()
	tr.MaxEvents = 10
	c := tr.Component("hot")
	for i := 0; i < 25; i++ {
		c.Instant("e", int64(i))
	}
	if tr.Events() != 10 {
		t.Fatalf("buffered = %d, want 10", tr.Events())
	}
	if tr.Dropped() != 15 {
		t.Fatalf("dropped = %d, want 15", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range decodeTrace(t, buf.Bytes()) {
		if e["name"] == "trace_dropped_events" {
			found = true
			if d := e["args"].(map[string]any)["dropped"].(float64); d != 15 {
				t.Fatalf("dropped metadata = %g", d)
			}
		}
	}
	if !found {
		t.Fatal("dropped-events metadata missing")
	}
}

// TestEmptyTracerExport: a tracer with components but no events must still
// produce valid JSON.
func TestEmptyTracerExport(t *testing.T) {
	tr := New()
	tr.Component("idle")
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decodeTrace(t, buf.Bytes())
}

func TestComponentReuse(t *testing.T) {
	tr := New()
	a := tr.Component("x")
	b := tr.Component("x")
	if a != b {
		t.Fatal("same name must return the same track")
	}
	if tr.Component("y") == a {
		t.Fatal("distinct names must return distinct tracks")
	}
}

func TestNegativeDurationClamps(t *testing.T) {
	tr := New()
	tr.Component("c").Span("s", 10, -5)
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, e := range decodeTrace(t, buf.Bytes()) {
		if e["ph"] == "X" && e["dur"].(float64) != 0 {
			t.Fatalf("negative duration not clamped: %v", e)
		}
	}
}
