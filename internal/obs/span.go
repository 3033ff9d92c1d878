package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// Span is one named wall-clock interval in a job's lifecycle. A zero End
// means the span is still open. Spans are wall-clock observations only —
// they never influence the simulation. internal/trace holds simulated-time
// intervals and writes both kinds as Chrome trace_event JSON.
type Span struct {
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end,omitempty"` // zero (open span) is omitted by MarshalJSON
}

// MarshalJSON omits the end field while the span is open (`omitempty`
// does not apply to struct-typed time.Time on this Go version).
func (s Span) MarshalJSON() ([]byte, error) {
	type closed Span
	if s.End.IsZero() {
		return json.Marshal(struct {
			Name  string    `json:"name"`
			Start time.Time `json:"start"`
		}{s.Name, s.Start})
	}
	return json.Marshal(closed(s))
}

// Duration returns End-Start, or 0 for an open span.
func (s Span) Duration() time.Duration {
	if s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// SpanList is a concurrency-safe ordered collection of spans. The zero
// value is ready to use; a nil *SpanList no-ops on every method, so
// recording sites stay unconditional.
type SpanList struct {
	mu    sync.Mutex
	spans []Span
}

// Open starts a new span and returns a handle for Close. Returns -1 on a
// nil list.
func (l *SpanList) Open(name string) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, Span{Name: name, Start: time.Now()})
	return len(l.spans) - 1
}

// Close ends the span opened with the given handle. No-op on a nil list,
// a negative handle, or an already-closed span.
func (l *SpanList) Close(h int) {
	if l == nil || h < 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if h < len(l.spans) && l.spans[h].End.IsZero() {
		l.spans[h].End = time.Now()
	}
}

// Snapshot returns a copy of the spans recorded so far (nil on a nil
// list).
func (l *SpanList) Snapshot() []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Span(nil), l.spans...)
}
