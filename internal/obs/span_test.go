package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSpanListLifecycle(t *testing.T) {
	var l SpanList
	h := l.Open("queued")
	time.Sleep(time.Millisecond)
	l.Close(h)
	l.Open("executing")

	got := l.Snapshot()
	if len(got) != 2 {
		t.Fatalf("snapshot len = %d, want 2", len(got))
	}
	if got[0].Name != "queued" || got[0].End.IsZero() || got[0].Duration() <= 0 {
		t.Fatalf("queued span not closed: %+v", got[0])
	}
	if got[1].Name != "executing" || !got[1].End.IsZero() {
		t.Fatalf("executing span not open: %+v", got[1])
	}

	// Close is idempotent and tolerates bad handles.
	end := got[0].End
	l.Close(h)
	l.Close(-1)
	l.Close(99)
	if got2 := l.Snapshot(); !got2[0].End.Equal(end) {
		t.Fatal("re-Close moved the span end")
	}
}

func TestNilSpanListSafe(t *testing.T) {
	var l *SpanList
	h := l.Open("x")
	l.Close(h)
	if l.Snapshot() != nil {
		t.Fatal("nil SpanList snapshot not nil")
	}
}

func TestOpenSpanHasZeroEnd(t *testing.T) {
	var l SpanList
	l.Open("executing")
	s := l.Snapshot()[0]
	if !s.End.IsZero() || s.Duration() != 0 {
		t.Fatalf("open span should have zero End: %+v", s)
	}
	// The zero End must serialize away so clients see open vs closed.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"end"`)) {
		t.Fatalf("open span serialized an end time: %s", b)
	}
}
