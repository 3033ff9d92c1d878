package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call into a layer, recorded from outside it: the name is
// "layer.func", key is the cell or job the call served, and tid the
// goroutine slot that made it.
type span struct {
	id, parent int
	name, key  string
	tid        int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths can share call sites.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 for none) and returns its id.
func (t *tracer) begin(parent int, name, key string, tid int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, key: key, tid: tid, start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// setKey names the cell or job a span served once it is known (a job ID
// is assigned by the server's reply).
func (t *tracer) setKey(id int, key string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].key = key
	t.mu.Unlock()
}

// add records a closed span with explicit bounds (spans reported by the
// server for a served job).
func (t *tracer) add(parent int, name, key string, tid int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, key: key, tid: tid,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return len(t.spans)
}

// layerTime is one row of the self-time table.
type layerTime struct {
	layer       string
	calls       int
	total, self time.Duration
}

// under returns the spans of the subtree rooted at span root, or every
// span for root 0.
func (t *tracer) under(root int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	in := map[int]bool{root: true}
	var out []span
	for _, s := range t.spans { // parents are always recorded before children
		if root == 0 || s.id == root || in[s.parent] {
			in[s.id] = true
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, summed per layer (the name up to its first dot).
// Children of one span may overlap when they ran on different goroutines,
// so their intervals are merged before subtracting.
func (t *tracer) selfTimes() []layerTime {
	spans := t.under(0)
	children := map[int][]span{}
	for _, s := range spans {
		children[s.parent] = append(children[s.parent], s)
	}
	rows := map[string]*layerTime{}
	for _, s := range spans {
		layer := s.name
		if i := strings.IndexByte(layer, '.'); i >= 0 {
			layer = layer[:i]
		}
		row := rows[layer]
		if row == nil {
			row = &layerTime{layer: layer}
			rows[layer] = row
		}
		dur := s.end - s.start
		row.calls++
		row.total += dur
		row.self += dur - covered(s, children[s.id])
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals spans.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB time.Duration
	open := false
	for _, x := range ivs {
		if open && x.a <= curB {
			curB = max(curB, x.b)
			continue
		}
		if open {
			sum += curB - curA
		}
		curA, curB, open = x.a, x.b, true
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// spanTotal returns the summed duration and count of the spans named
// name in the subtree under root.
func (t *tracer) spanTotal(root int, name string) (time.Duration, int) {
	var sum time.Duration
	n := 0
	for _, s := range t.under(root) {
		if s.name == name {
			sum += s.end - s.start
			n++
		}
	}
	return sum, n
}

// writeChrome writes the spans as Chrome trace_event JSON (load in
// chrome://tracing or Perfetto).
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]any{"id": s.id, "parent": s.parent, "key": s.key},
		})
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

// writeTable writes the per-layer self-time table.
func writeTable(w io.Writer, rows []layerTime) {
	var all time.Duration
	for _, r := range rows {
		all += r.self
	}
	fmt.Fprintf(w, "%-10s %8s %12s %12s %7s\n", "layer", "calls", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %12.3f %12.3f %6.1f%%\n", r.layer, r.calls, ms(r.total), ms(r.self),
			100*ratio(float64(r.self), float64(all)))
	}
}

// writeTraceFiles writes trace.json and layers.txt for one workload under
// dir and echoes the table to w.
func writeTraceFiles(dir, workload string, t *tracer, w io.Writer) error {
	dir = filepath.Join(dir, workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := t.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rows := t.selfTimes()
	var tab strings.Builder
	writeTable(&tab, rows)
	fmt.Fprint(w, tab.String())
	return os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(tab.String()), 0o644)
}
