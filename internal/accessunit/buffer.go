// Package accessunit implements the Fig. 2c access unit: SRAM window
// buffers with per-consumer read pointers, the strided fill/drain FSM, and
// the NoC link that realizes decoupled producer→consumer channels (Fig. 4).
package accessunit

import (
	"fmt"
	"math/bits"

	"distda/internal/energy"
	"distda/internal/engine"
	"distda/internal/profile"
)

// Buffer is a bounded stream window held in the access unit's SRAM. A
// single writer appends a monotonically numbered element sequence; multiple
// readers (combined accessors, Fig. 2d) each hold an independent read
// pointer. An element's storage is reclaimed once every reader has passed
// it, which is what lets a stencil's A[i], A[i+1], A[i+2] accessors share
// one fetched window.
type Buffer struct {
	cap int
	// data holds element seq at data[seq&mask]: its length is cap rounded
	// up to a power of two, so locating a slot costs a mask, not a
	// division, on every push and pop. The live window [minSeq, wseq) is
	// never longer than cap, so no two of its elements share a slot.
	data    []float64
	mask    int64
	wseq    int64
	readers []int64
	// minSeq caches min(readers): the reclaim watermark. Push and CanPush
	// sit on the simulator's innermost loop and must not rescan every
	// reader; the cache is refreshed only when the slowest reader advances
	// (Pop/Skip from the watermark) or a new reader attaches behind it.
	minSeq int64
	closed bool
	meter  *energy.Meter
	// subs are the latches of the components whose engine claims read the
	// buffer. Every mutation that can change what they read wakes them:
	// Push, Close and AttachReader, and Pop/Skip when the reclaim
	// watermark moves. A Pop by any other reader changes only that
	// reader's own view, which its owner re-reads after its step.
	subs []*engine.Latch

	Pushes int64
	Pops   int64

	// Occ, when profiling is on, observes the buffer's occupancy after each
	// push — the queue-occupancy histogram of the stats dump. Nil (one
	// predictable branch per push) when profiling is off.
	Occ *profile.Hist
}

// NewBuffer creates a buffer holding capElems elements, metering SRAM
// energy into m (may be nil).
func NewBuffer(capElems int, m *energy.Meter) (*Buffer, error) {
	b := &Buffer{}
	if err := b.Reset(capElems, m); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset returns b to the state NewBuffer(capElems, m) would build: empty,
// open, no readers, zeroed counters and no occupancy histogram. The
// element storage is kept when it is large enough, so a simulator can
// recycle one launch's buffers for the next. Stale element values are
// unobservable: a slot is only read after a Push has rewritten it.
// Subscribers are dropped with the rest: the previous launch's components
// are never woken by the next launch's traffic.
func (b *Buffer) Reset(capElems int, m *energy.Meter) error {
	if capElems <= 0 {
		return fmt.Errorf("accessunit: buffer capacity %d", capElems)
	}
	slots := 1 << bits.Len(uint(capElems-1))
	data := b.data
	if cap(data) < slots {
		data = make([]float64, slots)
	}
	clear(b.subs)
	*b = Buffer{cap: capElems, data: data[:slots], mask: int64(slots - 1),
		readers: b.readers[:0], subs: b.subs[:0], meter: m}
	return nil
}

// Subscribe wakes l on every mutation of b that a reader or writer's
// claim may depend on (see engine.Hinter).
func (b *Buffer) Subscribe(l *engine.Latch) { b.subs = append(b.subs, l) }

// wake wakes every subscriber.
func (b *Buffer) wake() {
	for _, l := range b.subs {
		l.Wake()
	}
}

// Cap returns the capacity in elements.
func (b *Buffer) Cap() int { return b.cap }

// AttachReader registers a consumer starting at sequence startSeq (a
// combined accessor with +k element offset starts at seq k) and returns its
// reader handle.
func (b *Buffer) AttachReader(startSeq int64) int {
	b.readers = append(b.readers, startSeq)
	if len(b.readers) == 1 || startSeq < b.minSeq {
		b.minSeq = startSeq
	}
	b.wake()
	return len(b.readers) - 1
}

// recomputeMin rescans the readers for the watermark. Called only when
// the reader that was at the watermark advances.
func (b *Buffer) recomputeMin() {
	if len(b.readers) == 0 {
		b.minSeq = 0 // no consumers wired yet: nothing is reclaimable
		return
	}
	m := b.readers[0]
	for _, r := range b.readers[1:] {
		if r < m {
			m = r
		}
	}
	b.minSeq = m
}

// CanPush reports whether one more element fits.
func (b *Buffer) CanPush() bool {
	return !b.closed && b.wseq-b.minSeq < int64(b.cap)
}

// Push appends an element. The caller must check CanPush.
func (b *Buffer) Push(v float64) {
	if !b.CanPush() {
		panic("accessunit: Push on full or closed buffer")
	}
	b.data[b.wseq&b.mask] = v
	b.wseq++
	b.Pushes++
	if b.meter != nil {
		b.meter.Add(energy.CatBuffer, b.meter.Table.BufferPJ)
	}
	if b.Occ != nil {
		b.Occ.Observe(float64(b.wseq - b.minSeq))
	}
	b.wake()
}

// CanPop reports whether reader r has an element available.
func (b *Buffer) CanPop(r int) bool { return b.readers[r] < b.wseq }

// Pop returns the next element for reader r. The caller must check CanPop.
func (b *Buffer) Pop(r int) float64 {
	if !b.CanPop(r) {
		panic("accessunit: Pop on empty buffer")
	}
	seq := b.readers[r]
	if b.wseq-seq > int64(b.cap) {
		panic("accessunit: reader fell out of the window")
	}
	v := b.data[seq&b.mask]
	b.readers[r]++
	if seq == b.minSeq {
		b.recomputeMin()
		b.wake()
	}
	b.Pops++
	if b.meter != nil {
		b.meter.Add(energy.CatBuffer, b.meter.Table.BufferPJ)
	}
	return v
}

// Skip advances reader r by n elements without reading them (cp_step).
func (b *Buffer) Skip(r int, n int64) {
	if b.readers[r]+n > b.wseq {
		panic("accessunit: Skip past write pointer")
	}
	seq := b.readers[r]
	b.readers[r] += n
	if seq == b.minSeq && n > 0 {
		b.recomputeMin()
		b.wake()
	}
}

// Close marks end-of-stream: no further pushes. Readers may drain what
// remains.
func (b *Buffer) Close() {
	b.closed = true
	b.wake()
}

// Closed reports whether the writer closed the stream.
func (b *Buffer) Closed() bool { return b.closed }

// Drained reports end-of-stream for reader r: closed and fully consumed.
func (b *Buffer) Drained(r int) bool { return b.closed && b.readers[r] >= b.wseq }

// Level returns how many elements reader r still has buffered.
func (b *Buffer) Level(r int) int64 { return b.wseq - b.readers[r] }

// Occupancy returns the elements currently held (window between the write
// pointer and the slowest reader).
func (b *Buffer) Occupancy() int64 { return b.wseq - b.minSeq }
