package accessunit

import (
	"distda/internal/engine"
	"distda/internal/noc"
)

// This file realizes one producer→consumer channel across access units
// (Fig. 4) as a pair of engine components — LinkTx at the producer's node,
// LinkRx at the consumer's — exchanging timestamped messages over two
// LocalWires. The halves exist because the receiver's buffer space is not
// visible to the sender directly: elements and end-of-stream travel Tx→Rx
// at the NoC transfer latency, and buffer space comes back Rx→Tx as batched
// credit returns that pay their own traversal (credit-based flow control,
// §IV-C). A producer therefore stalls for a credit round-trip, not for the
// consumer's instantaneous occupancy.

// Message kinds carried on a link's wires.
const (
	// LinkElem carries one stream element (Val is the payload).
	LinkElem = iota
	// LinkClose signals end-of-stream; it follows the last element.
	LinkClose
	// LinkCredit returns buffer credits to the sender (Val is the count).
	LinkCredit
)

// LinkMsg is one timestamped message between link halves. At is the base
// cycle at which the receiver may observe it.
type LinkMsg struct {
	At   int64
	Kind int
	Val  float64
}

// LocalWire is one direction between link halves: a FIFO the receiver
// drains by timestamp. Messages are sent with nondecreasing At (the NoC
// route is FIFO); senders enforce this by clamping.
//
// The queue is head-indexed: Pop advances head instead of reslicing, so
// the backing array keeps its capacity and steady-state traffic does not
// allocate. The dead prefix q[:head] is reclaimed when the queue drains,
// or by an in-place compaction when Send finds the array full and at
// least half of it dead. Each compaction copies at most as many messages
// as were popped since the last one, so the cost stays amortized O(1) per
// message even for a deep queue that never drains.
type LocalWire struct {
	q    []LinkMsg
	head int
	// rx is the receiving half's latch (nil when unwired): a send is the
	// only mutation that can make the receiver's claim earlier.
	rx *engine.Latch
}

// Send appends a message and wakes the receiver.
func (w *LocalWire) Send(m LinkMsg) {
	if len(w.q) == cap(w.q) && w.head > 0 && 2*w.head >= len(w.q) {
		n := copy(w.q, w.q[w.head:])
		w.q = w.q[:n]
		w.head = 0
	}
	w.q = append(w.q, m)
	if w.rx != nil {
		w.rx.Wake()
	}
}

// Head returns the earliest message, if any.
func (w *LocalWire) Head() (LinkMsg, bool) {
	if w.head == len(w.q) {
		return LinkMsg{}, false
	}
	return w.q[w.head], true
}

// Pop consumes the head message.
func (w *LocalWire) Pop() {
	w.head++
	if w.head == len(w.q) {
		w.q, w.head = w.q[:0], 0
	}
}

// linkCredits bounds elements in flight per channel: the sender's initial
// credit grant (clamped to the consumer buffer's capacity). Large enough
// to cover the credit-return round trip at one element per cycle across
// the mesh diagonal.
const linkCredits = 32

// creditBatch: one 8-byte credit-return control message per this many
// delivered elements.
const creditBatch = 8

// LinkTx is the producer half: it pops the producer-side buffer and sends
// elements (then end-of-stream) down the wire, spending credits the
// receiver returns.
type LinkTx struct {
	src       *Buffer
	srcReader int
	mesh      *noc.Mesh
	srcNode   int
	dstNode   int
	elemBytes int

	out     *LocalWire
	credits *LocalWire
	avail   int
	lastAt  int64
	closed  bool
	stats   *Stats
	latch   engine.Latch
}

// init wires the producer half. dstCap is the consumer buffer's capacity
// (the credit clamp); out carries elements and close, credits carries
// returns.
func (l *LinkTx) init(src *Buffer, mesh *noc.Mesh, srcNode, dstNode, elemBytes, dstCap int, out, credits *LocalWire, stats *Stats) {
	avail := linkCredits
	if dstCap < avail {
		avail = dstCap
	}
	*l = LinkTx{
		src: src, srcReader: src.AttachReader(0), mesh: mesh,
		srcNode: srcNode, dstNode: dstNode, elemBytes: elemBytes,
		out: out, credits: credits, avail: avail, stats: stats,
	}
	src.Subscribe(&l.latch)
}

// send stamps and forwards one message, keeping arrival times monotone
// (same-route messages never overtake).
func (l *LinkTx) send(now int64, lat int, kind int, v float64) {
	at := now + int64(lat)
	if at < l.lastAt {
		at = l.lastAt
	}
	l.lastAt = at
	l.out.Send(LinkMsg{At: at, Kind: kind, Val: v})
}

// Done reports that end-of-stream was sent; late credit returns are
// ignored.
func (l *LinkTx) Done() bool { return l.closed }

// remote reports whether the endpoints are on different mesh nodes.
func (l *LinkTx) remote() bool { return l.mesh != nil && l.srcNode != l.dstNode }

// Latch implements engine.Hinter; the source buffer and the credit wire
// wake it.
func (l *LinkTx) Latch() *engine.Latch { return &l.latch }

// NextEvent implements engine.Hinter.
func (l *LinkTx) NextEvent(now int64) int64 {
	if l.closed {
		return engine.Finished
	}
	if m, ok := l.credits.Head(); ok && m.At <= now {
		return 0 // credits to collect
	}
	if l.avail > 0 && l.src.CanPop(l.srcReader) {
		return 0 // inject now
	}
	if l.src.Drained(l.srcReader) {
		return 0 // propagate end-of-stream
	}
	if m, ok := l.credits.Head(); ok && m.At > now {
		return m.At // credit in flight
	}
	return engine.Never // blocked on producer pushes or credit returns
}

// Step advances one uncore clock.
func (l *LinkTx) Step(now int64) bool {
	if l.closed {
		return false
	}
	progress := false
	for {
		m, ok := l.credits.Head()
		if !ok || m.At > now {
			if ok {
				progress = true // credit timer running
			}
			break
		}
		l.credits.Pop()
		l.avail += int(m.Val)
		progress = true
	}
	for l.avail > 0 && l.src.CanPop(l.srcReader) {
		v := l.src.Pop(l.srcReader)
		lat := 1
		if l.remote() {
			lat = l.mesh.Transfer(l.srcNode, l.dstNode, l.elemBytes, noc.AccData)
			l.stats.AABytes += int64(l.elemBytes)
		}
		l.send(now, lat, LinkElem, v)
		l.avail--
		progress = true
	}
	if l.src.Drained(l.srcReader) {
		lat := 1
		if l.remote() {
			lat = l.mesh.MinLatency(l.srcNode, l.dstNode)
		}
		l.send(now, lat, LinkClose, 0)
		l.closed = true
		progress = true
	}
	return progress
}

// LinkRx is the consumer half: it delivers arrived elements into the
// consumer-side buffer, returns credits in batches, and closes the buffer
// on end-of-stream.
type LinkRx struct {
	dst     *Buffer
	mesh    *noc.Mesh
	srcNode int
	dstNode int

	in      *LocalWire
	credits *LocalWire
	batch   int
	lastAt  int64
	closed  bool
	latch   engine.Latch
}

// Done reports that end-of-stream was delivered.
func (l *LinkRx) Done() bool { return l.closed }

func (l *LinkRx) remote() bool { return l.mesh != nil && l.srcNode != l.dstNode }

// Latch implements engine.Hinter; the element wire and the destination
// buffer wake it.
func (l *LinkRx) Latch() *engine.Latch { return &l.latch }

// NextEvent implements engine.Hinter.
func (l *LinkRx) NextEvent(now int64) int64 {
	if l.closed {
		return engine.Finished
	}
	m, ok := l.in.Head()
	if !ok {
		return engine.Never // blocked on the sender
	}
	if m.At > now {
		return m.At // in flight
	}
	if m.Kind != LinkElem || l.dst.CanPush() {
		return 0 // deliver or close now
	}
	return engine.Never // blocked on consumer pops
}

// Step advances one uncore clock.
func (l *LinkRx) Step(now int64) bool {
	if l.closed {
		return false
	}
	progress := false
	for {
		m, ok := l.in.Head()
		if !ok {
			break
		}
		if m.At > now {
			progress = true // in-flight timer
			break
		}
		if m.Kind == LinkElem {
			if !l.dst.CanPush() {
				break
			}
			l.dst.Push(m.Val)
			l.in.Pop()
			progress = true
			l.batch++
			if l.batch == creditBatch {
				l.returnCredits(now, l.batch)
				l.batch = 0
			}
			continue
		}
		// LinkClose: always last on the wire.
		l.in.Pop()
		l.dst.Close()
		l.closed = true
		progress = true
	}
	return progress
}

// returnCredits sends one batched credit-return control message.
func (l *LinkRx) returnCredits(now int64, n int) {
	lat := 1
	if l.remote() {
		lat = l.mesh.Transfer(l.dstNode, l.srcNode, 8, noc.AccCtrl)
	}
	at := now + int64(lat)
	if at < l.lastAt {
		at = l.lastAt
	}
	l.lastAt = at
	l.credits.Send(LinkMsg{At: at, Kind: LinkCredit, Val: float64(n)})
}

// LocalLink co-allocates the halves and wires of one link, so a simulator
// can recycle the whole link from one launch to the next (see Reset).
type LocalLink struct {
	Tx        LinkTx
	Rx        LinkRx
	fwd, back LocalWire
	// store backs both wires: fwd.q and back.q are disjoint windows of it.
	store []LinkMsg
}

// NewLocalLink wires a Tx/Rx pair over LocalWires; register both halves
// with the engine, Tx first.
func NewLocalLink(src, dst *Buffer, mesh *noc.Mesh, srcNode, dstNode, elemBytes int, stats *Stats) (*LinkTx, *LinkRx) {
	l := &LocalLink{}
	l.Reset(src, dst, mesh, srcNode, dstNode, elemBytes, stats)
	return &l.Tx, &l.Rx
}

// Reset rewires l as NewLocalLink would build it — both halves fresh,
// both wires empty, latches detached — keeping the wires' storage when it
// is large enough. Stale messages are unobservable: a wire reads only
// what was sent since. Credits bound what each wire holds at once (the
// initial grant plus end-of-stream forward, one return per creditBatch
// deliveries back); twice that bound leaves room for the dead prefix
// LocalWire compacts away, so the wires never grow.
func (l *LocalLink) Reset(src, dst *Buffer, mesh *noc.Mesh, srcNode, dstNode, elemBytes int, stats *Stats) {
	l.Tx.init(src, mesh, srcNode, dstNode, elemBytes, dst.Cap(), &l.fwd, &l.back, stats)
	l.Rx = LinkRx{dst: dst, mesh: mesh, srcNode: srcNode, dstNode: dstNode, in: &l.fwd, credits: &l.back}
	dst.Subscribe(&l.Rx.latch)
	fwdCap := 2 * (l.Tx.avail + 1)
	n := fwdCap + 2*(l.Tx.avail/creditBatch+1)
	if cap(l.store) < n {
		l.store = make([]LinkMsg, n)
	}
	q := l.store[:n]
	l.fwd = LocalWire{q: q[:0:fwdCap], rx: &l.Rx.latch}
	l.back = LocalWire{q: q[fwdCap:fwdCap], rx: &l.Tx.latch}
}
