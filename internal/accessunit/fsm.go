package accessunit

import (
	"fmt"

	"distda/internal/energy"
	"distda/internal/engine"
	"distda/internal/profile"
	"distda/internal/trace"
)

// Stats aggregates the Fig. 9 traffic categories for one simulated run.
type Stats struct {
	// DABytes: external traffic between accelerators and the cache
	// hierarchy (line fills, drains, random accesses).
	DABytes int64
	// AABytes: external traffic between an accelerator and a remote
	// accelerator (operand forwarding over the NoC).
	AABytes int64
	// IntraBytes: traffic internal to an accelerator's local buffers.
	IntraBytes int64
}

// Total returns all accelerator-side bytes moved.
func (s *Stats) Total() int64 { return s.DABytes + s.AABytes + s.IntraBytes }

// Memory provides functional element access to the named memory objects.
// The simulator implements it over the slab-allocated backing arrays.
type Memory interface {
	Read(obj string, idx int64) (float64, error)
	Write(obj string, idx int64, v float64) error
	AddrOf(obj string, idx int64) (int64, error)
	ElemBytes(obj string) (int, error)
}

// Fetcher models the timing and traffic of moving data between an access
// unit at an L3 cluster and the cache hierarchy. bytes is the payload
// returned to (or sent from) the requester. The returned latency is in
// engine base cycles.
type Fetcher interface {
	Access(cluster int, addr int64, write bool, bytes int) (latency int)
	LineBytes() int
}

// pendingLine is one in-flight line fetch: values already read functionally,
// delivered into the buffer at arrival time in issue order. vals keeps its
// backing array across reuse of the slot; vals[next:] are undelivered.
type pendingLine struct {
	arrival int64
	vals    []float64
	next    int
}

// left returns the number of undelivered values.
func (p *pendingLine) left() int { return len(p.vals) - p.next }

// maxInflight is the access unit's outstanding line-fetch capacity (its
// MSHR analog): enough to cover L3 latency at one element per cycle.
const maxInflight = 4

// pushesPerCycle bounds SRAM write ports.
const pushesPerCycle = 2

// StreamIn is the fill FSM: it walks the configured stride pattern,
// fetching lines from the cluster's cache hierarchy and pushing elements
// into the buffer ahead of the consumer (§IV-C component 4).
type StreamIn struct {
	buf     *Buffer
	mem     Memory
	fetch   Fetcher
	cluster int
	obj     string

	start, stride, length int64 // elements
	elemBytes             int64

	issued int64 // elements whose fetch was issued
	// pending is a ring of in-flight line fetches in issue order: npend
	// lines starting at slot phead. Each slot's value storage is reused by
	// the next line issued into it, so steady-state streaming does not
	// allocate.
	pending      [maxInflight]pendingLine
	phead, npend int
	// vals backs every pending slot's value storage; Reset keeps it.
	vals     []float64
	lastLine int64
	closed   bool
	stats    *Stats
	meter    *energy.Meter
	latch    engine.Latch

	// Trace, when enabled, records one span per issued line fetch and an
	// instant at end-of-stream close. Set after construction (the zero value
	// is disabled); timing is unaffected either way.
	Trace trace.Scope
	// LatHist, when non-nil, observes per-line fetch latencies (base cycles).
	LatHist *profile.Hist
}

// NewStreamIn builds a fill FSM. length may be zero (the buffer closes
// immediately).
func NewStreamIn(buf *Buffer, mem Memory, fetch Fetcher, cluster int, obj string,
	start, stride, length int64, stats *Stats, meter *energy.Meter) (*StreamIn, error) {
	f := &StreamIn{}
	if err := f.Reset(buf, mem, fetch, cluster, obj, start, stride, length, stats, meter); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset returns f to the state NewStreamIn with the same arguments would
// build: nothing issued or in flight, open, latch detached, tracing off
// and no latency histogram. The in-flight line storage is kept when it is
// large enough, so a simulator can recycle one launch's fill FSMs for the
// next; stale values are unobservable, since a slot is read only after a
// line issue rewrote it. On error f is unchanged.
func (f *StreamIn) Reset(buf *Buffer, mem Memory, fetch Fetcher, cluster int, obj string,
	start, stride, length int64, stats *Stats, meter *energy.Meter) error {
	eb, err := mem.ElemBytes(obj)
	if err != nil {
		return err
	}
	if stride == 0 && length > 1 {
		return fmt.Errorf("accessunit: zero stride stream of length %d on %q", length, obj)
	}
	// Each pending slot holds at most one line's elements: issueLine never
	// crosses a line, so one backing array sized up front serves every slot
	// for the stream's lifetime.
	per := int64(fetch.LineBytes()) / int64(eb)
	if per < 1 {
		per = 1
	}
	vals := f.vals
	if int64(cap(vals)) < maxInflight*per {
		vals = make([]float64, maxInflight*per)
	}
	*f = StreamIn{
		buf: buf, mem: mem, fetch: fetch, cluster: cluster, obj: obj,
		start: start, stride: stride, length: length, elemBytes: int64(eb),
		vals: vals, lastLine: -1, stats: stats, meter: meter,
	}
	for i := range f.pending {
		lo := int64(i) * per
		f.pending[i].vals = vals[lo : lo : lo+per]
	}
	buf.Subscribe(&f.latch)
	return nil
}

// Done reports stream completion (all elements delivered, buffer closed).
func (f *StreamIn) Done() bool { return f.closed }

// Step advances one access-unit clock.
func (f *StreamIn) Step(now int64) bool {
	progress := false
	// Deliver arrived lines in issue order.
	pushed := 0
	for f.npend > 0 && f.pending[f.phead].arrival <= now && pushed < pushesPerCycle {
		head := &f.pending[f.phead]
		for head.next < len(head.vals) && f.buf.CanPush() && pushed < pushesPerCycle {
			f.buf.Push(head.vals[head.next])
			head.next++
			pushed++
			progress = true
		}
		if head.left() > 0 {
			break
		}
		f.phead = (f.phead + 1) % maxInflight
		f.npend--
	}
	// Anything still in flight counts as progress (a timer is running).
	if f.npend > 0 && f.pending[f.phead].arrival > now {
		progress = true
	}
	// Issue the next line fetch when there is buffer headroom.
	if f.issued < f.length && f.npend < maxInflight && f.headroom() > 0 {
		if f.issueLine(now) {
			progress = true
		}
	}
	// Close at end of stream.
	if !f.closed && f.issued >= f.length && f.npend == 0 {
		f.buf.Close()
		f.closed = true
		progress = true
		if f.Trace.Enabled() {
			f.Trace.Instant("close", now, trace.KV{K: "obj", V: f.obj}, trace.KV{K: "elems", V: f.issued})
		}
	}
	return progress
}

// Latch implements engine.Hinter; the buffer wakes it.
func (f *StreamIn) Latch() *engine.Latch { return &f.latch }

// NextEvent implements engine.Hinter: the fill FSM's next effect is a
// delivery, an issue, or the end-of-stream close — all immediate when
// possible — otherwise the head in-flight line's arrival; with nothing in
// flight and no headroom it is blocked on the consumer.
func (f *StreamIn) NextEvent(now int64) int64 {
	if f.closed {
		return 0
	}
	if f.npend > 0 && f.pending[f.phead].arrival <= now && f.buf.CanPush() {
		return 0 // arrived line, buffer space: deliver now
	}
	if f.issued < f.length && f.npend < maxInflight && f.headroom() > 0 {
		return 0 // can issue the next line fetch now
	}
	if f.issued >= f.length && f.npend == 0 {
		return 0 // end of stream: close now
	}
	if f.npend > 0 && f.pending[f.phead].arrival > now {
		return f.pending[f.phead].arrival // line in flight
	}
	return engine.Never // full buffer: blocked on the consumer
}

// headroom estimates free buffer space beyond in-flight elements so the
// fill FSM throttles on back-pressure (§V-B).
func (f *StreamIn) headroom() int64 {
	inflight := int64(0)
	for i := 0; i < f.npend; i++ {
		inflight += int64(f.pending[(f.phead+i)%maxInflight].left())
	}
	return int64(f.buf.Cap()) - f.buf.Occupancy() - inflight
}

// issueLine reads the next run of elements sharing one cache line and
// issues its fetch. Elements whose line was just fetched are intra-buffer
// reuse; new lines cost a D-A line transfer.
func (f *StreamIn) issueLine(now int64) bool {
	lineBytes := int64(f.fetch.LineBytes())
	slot := &f.pending[(f.phead+f.npend)%maxInflight]
	vals := slot.vals[:0]
	var issueLat int
	newLine := false
	for f.issued < f.length {
		idx := f.start + f.issued*f.stride
		addr, err := f.mem.AddrOf(f.obj, idx)
		if err != nil {
			panic(fmt.Sprintf("accessunit: stream %q: %v", f.obj, err))
		}
		line := addr / lineBytes
		if len(vals) > 0 && line != f.lastLine {
			break // next element starts a new line; fetch it next issue
		}
		if line != f.lastLine {
			issueLat = f.fetch.Access(f.cluster, addr, false, int(lineBytes))
			f.stats.DABytes += lineBytes
			f.lastLine = line
			newLine = true
			if f.Trace.Enabled() {
				f.Trace.Span("fill", now, int64(issueLat), trace.KV{K: "obj", V: f.obj})
			}
			f.LatHist.Observe(float64(issueLat))
		} else if len(vals) == 0 && !newLine {
			// Element served from the already-fetched line: pure reuse
			// (buffer-internal traffic is accounted at the buffer).
			issueLat = 1
		}
		v, err := f.mem.Read(f.obj, idx)
		if err != nil {
			panic(fmt.Sprintf("accessunit: stream %q: %v", f.obj, err))
		}
		vals = append(vals, v)
		f.issued++
		if f.stride*f.elemBytes >= lineBytes || f.stride < 0 {
			break // each element on its own line (or reverse: keep simple)
		}
	}
	if len(vals) == 0 {
		return false
	}
	if f.meter != nil {
		f.meter.Add(energy.CatAccel, f.meter.Table.TranslatePJ)
	}
	slot.arrival, slot.vals, slot.next = now+int64(issueLat), vals, 0
	f.npend++
	return true
}

// StreamOut is the drain FSM: it pops produced elements from the buffer and
// writes them back through the cluster's cache hierarchy following the
// configured stride.
type StreamOut struct {
	buf     *Buffer
	reader  int
	mem     Memory
	fetch   Fetcher
	cluster int
	obj     string

	start, stride int64
	elemBytes     int64

	drained   int64
	lastLine  int64
	busyUntil int64
	closed    bool
	stats     *Stats
	meter     *energy.Meter
	latch     engine.Latch

	// Trace, when enabled, records one span per line writeback and an
	// instant when the drain completes. Set after construction.
	Trace trace.Scope
	// LatHist, when non-nil, observes per-line writeback latencies.
	LatHist *profile.Hist
}

// NewStreamOut builds a drain FSM reading from buf via its own reader.
func NewStreamOut(buf *Buffer, mem Memory, fetch Fetcher, cluster int, obj string,
	start, stride int64, stats *Stats, meter *energy.Meter) (*StreamOut, error) {
	f := &StreamOut{}
	if err := f.Reset(buf, mem, fetch, cluster, obj, start, stride, stats, meter); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset returns f to the state NewStreamOut with the same arguments would
// build — a new reader on buf, nothing drained, open, latch detached,
// tracing off and no latency histogram — so a simulator can recycle one
// launch's drain FSMs for the next. On error f is unchanged.
func (f *StreamOut) Reset(buf *Buffer, mem Memory, fetch Fetcher, cluster int, obj string,
	start, stride int64, stats *Stats, meter *energy.Meter) error {
	eb, err := mem.ElemBytes(obj)
	if err != nil {
		return err
	}
	*f = StreamOut{
		buf: buf, reader: buf.AttachReader(0), mem: mem, fetch: fetch,
		cluster: cluster, obj: obj, start: start, stride: stride,
		elemBytes: int64(eb), lastLine: -1, stats: stats, meter: meter,
	}
	buf.Subscribe(&f.latch)
	return nil
}

// Done reports that the producer closed the stream and everything drained.
func (f *StreamOut) Done() bool { return f.closed }

// Step advances one access-unit clock.
func (f *StreamOut) Step(now int64) bool {
	if f.closed {
		return false
	}
	if now < f.busyUntil {
		return true // write port busy: timer counts down
	}
	if f.buf.Drained(f.reader) {
		f.closed = true
		if f.Trace.Enabled() {
			f.Trace.Instant("close", now, trace.KV{K: "obj", V: f.obj}, trace.KV{K: "elems", V: f.drained})
		}
		return true
	}
	if !f.buf.CanPop(f.reader) {
		return false // waiting on producer
	}
	v := f.buf.Pop(f.reader)
	idx := f.start + f.drained*f.stride
	if err := f.mem.Write(f.obj, idx, v); err != nil {
		panic(fmt.Sprintf("accessunit: drain %q: %v", f.obj, err))
	}
	addr, err := f.mem.AddrOf(f.obj, idx)
	if err != nil {
		panic(fmt.Sprintf("accessunit: drain %q: %v", f.obj, err))
	}
	lineBytes := int64(f.fetch.LineBytes())
	line := addr / lineBytes
	if line != f.lastLine {
		lat := f.fetch.Access(f.cluster, addr, true, int(lineBytes))
		f.stats.DABytes += lineBytes
		f.lastLine = line
		// Posted write: occupy the port briefly, don't wait for the ack.
		f.busyUntil = now + int64(min(lat, 4))
		if f.meter != nil {
			f.meter.Add(energy.CatAccel, f.meter.Table.TranslatePJ)
		}
		if f.Trace.Enabled() {
			f.Trace.Span("drain", now, f.busyUntil-now, trace.KV{K: "obj", V: f.obj})
		}
		f.LatHist.Observe(float64(lat))
	}
	f.drained++
	return true
}

// Latch implements engine.Hinter; the buffer wakes it.
func (f *StreamOut) Latch() *engine.Latch { return &f.latch }

// NextEvent implements engine.Hinter: the drain FSM acts as soon as its
// write port frees up and an element (or the end-of-stream mark) is
// available; an empty, still-open buffer blocks it on the producer.
func (f *StreamOut) NextEvent(now int64) int64 {
	if f.closed {
		return 0
	}
	if now < f.busyUntil {
		return f.busyUntil // write port busy
	}
	if f.buf.Drained(f.reader) || f.buf.CanPop(f.reader) {
		return 0
	}
	return engine.Never // waiting on the producer
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
