package accessunit

import (
	"reflect"
	"testing"
	"testing/quick"

	"distda/internal/engine"
	"distda/internal/noc"
	"distda/internal/profile"
	"distda/internal/trace"
)

// TestLocalWireSteadyStateAllocFree: once a wire's queue has grown to its
// working depth, Send/Head/Pop never allocate.
func TestLocalWireSteadyStateAllocFree(t *testing.T) {
	var w LocalWire
	at := int64(0)
	cycle := func() {
		for i := 0; i < 8; i++ {
			at++
			w.Send(LinkMsg{At: at, Kind: LinkElem, Val: float64(at)})
		}
		for i := 0; i < 8; i++ {
			if _, ok := w.Head(); !ok {
				t.Fatal("empty wire")
			}
			w.Pop()
		}
	}
	cycle() // warm-up: grow to depth 8
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state LocalWire allocates %.1f times per cycle", n)
	}
	// A wire that never drains keeps a backlog of 32 behind its head.
	for i := 0; i < 32; i++ {
		at++
		w.Send(LinkMsg{At: at})
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("backlogged LocalWire allocates %.1f times per cycle", n)
	}
}

// TestLocalWireDeepFIFO keeps FIFO order and timestamps with more than
// 10k messages outstanding under interleaved Send/Pop patterns, including
// a queue that never drains.
func TestLocalWireDeepFIFO(t *testing.T) {
	for _, pat := range []struct {
		name       string
		send, pops int // per round
		rounds     int
	}{
		{"fill-then-drain", 20000, 0, 1},
		{"never-drains", 3, 2, 12000},
		{"bursty", 300, 250, 220},
		{"lockstep", 1, 1, 20000},
	} {
		t.Run(pat.name, func(t *testing.T) {
			var w LocalWire
			var sent, popped, maxDepth int64
			pop := func() {
				m, ok := w.Head()
				if !ok {
					t.Fatalf("empty after %d pops of %d sent", popped, sent)
				}
				if m.At != popped || m.Val != float64(popped)*0.5 || m.Kind != int(popped%3) {
					t.Fatalf("message %d: got %+v", popped, m)
				}
				w.Pop()
				popped++
			}
			for r := 0; r < pat.rounds; r++ {
				for i := 0; i < pat.send; i++ {
					w.Send(LinkMsg{At: sent, Kind: int(sent % 3), Val: float64(sent) * 0.5})
					sent++
				}
				if d := sent - popped; d > maxDepth {
					maxDepth = d
				}
				for i := 0; i < pat.pops; i++ {
					pop()
				}
			}
			if maxDepth < 10000 && pat.name != "lockstep" {
				t.Fatalf("pattern reached depth %d, want >= 10000", maxDepth)
			}
			for popped < sent {
				pop()
			}
			if _, ok := w.Head(); ok {
				t.Fatal("drained wire not empty")
			}
		})
	}
}

// BenchmarkLocalWireDeep streams messages through a wire that holds a
// 16k-message backlog and never drains: compaction that copied on every
// pop or append would show here as O(backlog) ns/op.
func BenchmarkLocalWireDeep(b *testing.B) {
	b.ReportAllocs()
	var w LocalWire
	const backlog = 16 << 10
	for i := 0; i < backlog; i++ {
		w.Send(LinkMsg{At: int64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Send(LinkMsg{At: int64(backlog + i)})
		if m, ok := w.Head(); !ok || m.At != int64(i) {
			b.Fatalf("head %+v at %d", m, i)
		}
		w.Pop()
	}
}

// TestStreamInSteadyStateAllocFree: after warm-up, a fill FSM streaming
// into a consumer that keeps up allocates nothing per Step.
func TestStreamInSteadyStateAllocFree(t *testing.T) {
	const n = 1 << 16
	mem := newFakeMem(8, map[string][]float64{"A": make([]float64, n)})
	buf, _ := NewBuffer(32, nil)
	r := buf.AttachReader(0)
	fsm, err := NewStreamIn(buf, mem, &fakeFetch{lat: 6}, 0, "A", 0, 1, n, &Stats{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	step := func() {
		fsm.Step(now)
		for buf.CanPop(r) {
			buf.Pop(r)
		}
		now++
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if a := testing.AllocsPerRun(1000, step); a != 0 {
		t.Fatalf("StreamIn.Step allocates %.2f times per step", a)
	}
	if fsm.Done() {
		t.Fatal("stream finished during the measurement")
	}
}

// bufObs drives a buffer through an op sequence and records every
// observable: the reclaim watermark invariant, capacity checks, popped
// values, levels, occupancy, drain state and counters.
func bufObs(b *Buffer, ops []uint8) []int64 {
	var obs []int64
	scan := func() int64 {
		if len(b.readers) == 0 {
			return 0
		}
		m := b.readers[0]
		for _, r := range b.readers[1:] {
			if r < m {
				m = r
			}
		}
		return m
	}
	readers := []int{b.AttachReader(0)}
	var next int64
	for _, op := range ops {
		r := readers[int(op/8)%len(readers)]
		switch op % 8 {
		case 0, 1:
			if b.CanPush() {
				b.Push(float64(next))
				next++
			}
		case 2, 3:
			if b.CanPop(r) {
				obs = append(obs, int64(b.Pop(r)))
			}
		case 4:
			if k := b.Level(r) / 2; k > 0 {
				b.Skip(r, k)
			}
		case 5:
			if len(readers) < 4 {
				readers = append(readers, b.AttachReader(scan()))
			}
		case 6:
			if op%64 == 6 {
				b.Close()
			}
		}
		obs = append(obs, b2i(b.minSeq == scan()), b2i(b.CanPush()), b2i(b.CanPop(r)),
			b.Level(r), b.Occupancy(), b2i(b.Closed()), b2i(b.Drained(r)), b.Pushes, b.Pops)
	}
	return append(obs, int64(b.Cap()))
}

// TestBufferResetMatchesNew: a buffer recycled through Reset — after any
// history, at any capacity — is observationally equal to a NewBuffer under
// the watermark-invariant op mix, and carries no subscriber from before the
// Reset: the previous launch's components are never woken by the next
// launch's traffic.
func TestBufferResetMatchesNew(t *testing.T) {
	f := func(history, ops []uint8, capRaw, oldCapRaw uint8) bool {
		capElems := 2 + int(capRaw%16)
		fresh, err := NewBuffer(capElems, nil)
		if err != nil {
			return false
		}
		used, err := NewBuffer(2+int(oldCapRaw%16), nil)
		if err != nil {
			return false
		}
		var stale engine.Latch
		used.Subscribe(&stale)
		bufObs(used, history)
		if err := used.Reset(capElems, nil); err != nil {
			return false
		}
		if len(used.subs) != 0 {
			return false
		}
		want, got := bufObs(fresh, ops), bufObs(used, ops)
		if len(want) != len(got) {
			return false
		}
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	var b Buffer
	if err := b.Reset(0, nil); err == nil {
		t.Fatal("Reset accepted zero capacity")
	}
	rb, _ := NewBuffer(4, nil)
	stale := func(l *engine.Latch) {
		rb.Subscribe(l)
		rb.Reset(4, nil)
		rb.AttachReader(0)
	}
	if wakes(t, stale, func() { rb.Push(1) }) {
		t.Fatal("a Reset buffer woke a subscriber from before the Reset")
	}
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// linkObs drives a link for at most cycles cycles: n elements enter src as
// space allows, then end-of-stream; the consumer pops dst every slow-th
// cycle. It records each cycle's step progress and claims, every delivery
// with its cycle, and the traffic counters at the end.
func linkObs(tx *LinkTx, rx *LinkRx, src, dst *Buffer, mesh *noc.Mesh, stats *Stats, n, slow int, cycles int64) []int64 {
	rd := dst.AttachReader(0)
	var obs []int64
	pushed := 0
	for now := int64(0); now < cycles && !(tx.Done() && rx.Done() && dst.Drained(rd)); now++ {
		for pushed < n && src.CanPush() {
			src.Push(float64(pushed))
			pushed++
		}
		if pushed == n && !src.Closed() {
			src.Close()
		}
		obs = append(obs, b2i(tx.Step(now)), b2i(rx.Step(now)), tx.NextEvent(now), rx.NextEvent(now))
		for now%int64(slow) == 0 && dst.CanPop(rd) {
			obs = append(obs, now, int64(dst.Pop(rd)))
		}
	}
	return append(obs, b2i(tx.Done()), b2i(rx.Done()), stats.AABytes,
		mesh.Bytes[noc.AccData], mesh.Bytes[noc.AccCtrl])
}

// TestLocalLinkResetMatchesNew: a link recycled through Reset — after a
// run cut off at any point, between any nodes, at any consumer capacity —
// is built exactly as NewLocalLink builds it and then behaves exactly as a
// fresh link does.
func TestLocalLinkResetMatchesNew(t *testing.T) {
	f := func(histN, n, histCapRaw, capRaw, histCycles, slowRaw uint8, histRemote, remote bool) bool {
		node := func(r bool) int {
			if r {
				return 3
			}
			return 0
		}
		build := func(capElems int) (src, dst *Buffer, mesh *noc.Mesh, stats *Stats) {
			src, _ = NewBuffer(16, nil)
			dst, _ = NewBuffer(capElems, nil)
			return src, dst, noc.New(noc.DefaultConfig(), nil), &Stats{}
		}
		capElems, slow := 1+int(capRaw%40), 1+int(slowRaw%3)

		l := &LocalLink{}
		hsrc, hdst, hmesh, hstats := build(1 + int(histCapRaw%40))
		l.Reset(hsrc, hdst, hmesh, 0, node(histRemote), 8, hstats)
		linkObs(&l.Tx, &l.Rx, hsrc, hdst, hmesh, hstats, int(histN), 2, int64(histCycles))

		src, dst, mesh, stats := build(capElems)
		l.Reset(src, dst, mesh, 0, node(remote), 8, stats)
		fsrc, fdst, fmesh, fstats := build(capElems)
		ftx, frx := NewLocalLink(fsrc, fdst, fmesh, 0, node(remote), 8, fstats)
		if !reflect.DeepEqual(l.Tx, *ftx) || !reflect.DeepEqual(l.Rx, *frx) {
			t.Log("Reset link differs from NewLocalLink's")
			return false
		}
		return reflect.DeepEqual(linkObs(ftx, frx, fsrc, fdst, fmesh, fstats, int(n), slow, 1<<14),
			linkObs(&l.Tx, &l.Rx, src, dst, mesh, stats, int(n), slow, 1<<14))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// streamMem returns a memory holding objects A and B of n elements each
// (A[i] = 1.5i) at elemB bytes per element, laid out in that order.
func streamMem(elemB, n int) *fakeMem {
	a := make([]float64, n)
	for i := range a {
		a[i] = 1.5 * float64(i)
	}
	return &fakeMem{
		objs:  map[string][]float64{"A": a, "B": make([]float64, n)},
		base:  map[string]int64{"A": 0, "B": int64(n*elemB) + 4096},
		elemB: elemB,
	}
}

// streamInObs drives a fill FSM for at most cycles cycles, popping its
// buffer every slow-th cycle, and records each cycle's progress, claim
// and deliveries, then the traffic it caused.
func streamInObs(f *StreamIn, buf *Buffer, fetch *fakeFetch, stats *Stats, slow int, cycles int64) []int64 {
	r := buf.AttachReader(0)
	var obs []int64
	for now := int64(0); now < cycles && !(f.Done() && buf.Drained(r)); now++ {
		obs = append(obs, b2i(f.Step(now)), f.NextEvent(now), b2i(f.Done()))
		for now%int64(slow) == 0 && buf.CanPop(r) {
			obs = append(obs, now, int64(2*buf.Pop(r)))
		}
	}
	return append(obs, b2i(f.Done()), stats.DABytes, int64(fetch.accesses), int64(fetch.bytes))
}

// TestStreamInResetMatchesNew: a fill FSM recycled through Reset — after a
// stream cut off at any point, with tracing and a latency histogram
// attached, over elements of another width — is built as NewStreamIn
// builds it and then delivers exactly what a fresh one does.
func TestStreamInResetMatchesNew(t *testing.T) {
	f := func(histLen, length, histCycles, slowRaw, widthRaw, startRaw uint8, strideRaw int8) bool {
		const n = 256
		widths := []int{4, 8, 16}
		stride := int64(strideRaw % 5)
		if stride >= 0 {
			stride++
		} else {
			stride--
		}
		start := int64(startRaw) % n
		length64 := int64(length) % 64
		if last := start + (length64-1)*stride; length64 > 0 && (last < 0 || last >= n) {
			length64 = 1
		}
		slow := 1 + int(slowRaw%3)
		width := widths[int(widthRaw)%len(widths)]

		hbuf, _ := NewBuffer(8, nil)
		hmem := streamMem(widths[(int(widthRaw)+1)%len(widths)], n)
		used := &StreamIn{}
		if err := used.Reset(hbuf, hmem, &fakeFetch{lat: 5}, 1, "A", 0, 1, int64(histLen)%n, &Stats{}, nil); err != nil {
			t.Log(err)
			return false
		}
		used.Trace = trace.New().Component("fill").At(0)
		used.LatHist = profile.New().Hist("latency.test", "test")
		streamInObs(used, hbuf, &fakeFetch{}, &Stats{}, 2, int64(histCycles))

		buf, _ := NewBuffer(8, nil)
		fetch, stats := &fakeFetch{lat: 7}, &Stats{}
		if err := used.Reset(buf, streamMem(width, n), fetch, 2, "A", start, stride, length64, stats, nil); err != nil {
			t.Log(err)
			return false
		}
		fbuf, _ := NewBuffer(8, nil)
		ffetch, fstats := &fakeFetch{lat: 7}, &Stats{}
		fresh, err := NewStreamIn(fbuf, streamMem(width, n), ffetch, 2, "A", start, stride, length64, fstats, nil)
		if err != nil {
			t.Log(err)
			return false
		}
		if used.Trace.Enabled() || used.LatHist != nil {
			t.Log("Reset kept the tracer or the latency histogram")
			return false
		}
		return reflect.DeepEqual(streamInObs(fresh, fbuf, ffetch, fstats, slow, 1<<14),
			streamInObs(used, buf, fetch, stats, slow, 1<<14))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	buf, _ := NewBuffer(8, nil)
	var fsm StreamIn
	if err := fsm.Reset(buf, streamMem(8, 16), &fakeFetch{}, 0, "A", 0, 0, 8, &Stats{}, nil); err == nil {
		t.Fatal("Reset accepted a zero-stride stream")
	}
	if err := fsm.Reset(buf, streamMem(8, 16), &fakeFetch{}, 0, "Z", 0, 1, 8, &Stats{}, nil); err == nil {
		t.Fatal("Reset accepted an unknown object")
	}
}

// streamOutObs feeds a drain FSM n elements (a producer pushing one per
// cycle while space allows, then closing) for at most cycles cycles and
// records each cycle's progress and claim, then the drained memory and
// the traffic.
func streamOutObs(f *StreamOut, buf *Buffer, mem *fakeMem, fetch *fakeFetch, stats *Stats, n int, cycles int64) []int64 {
	var obs []int64
	pushed := 0
	for now := int64(0); now < cycles && !f.Done(); now++ {
		if pushed < n && buf.CanPush() {
			buf.Push(float64(pushed) + 0.5)
			pushed++
		} else if pushed == n && !buf.Closed() {
			buf.Close()
		}
		obs = append(obs, b2i(f.Step(now)), f.NextEvent(now))
	}
	for _, v := range mem.objs["B"] {
		obs = append(obs, int64(2*v))
	}
	return append(obs, b2i(f.Done()), stats.DABytes, int64(fetch.accesses), int64(fetch.bytes))
}

// TestStreamOutResetMatchesNew: a drain FSM recycled through Reset — after
// a drain cut off at any point, with tracing and a latency histogram
// attached — is built as NewStreamOut builds it and then writes back
// exactly what a fresh one does.
func TestStreamOutResetMatchesNew(t *testing.T) {
	f := func(histN, n, histCycles, startRaw uint8, strideRaw uint8) bool {
		const size = 256
		stride := int64(strideRaw%4) + 1
		start := int64(startRaw) % 64
		count := int(n) % 48

		hbuf, _ := NewBuffer(4, nil)
		hmem := streamMem(8, size)
		used := &StreamOut{}
		if err := used.Reset(hbuf, hmem, &fakeFetch{lat: 3}, 1, "B", 0, 1, &Stats{}, nil); err != nil {
			t.Log(err)
			return false
		}
		used.Trace = trace.New().Component("drain").At(0)
		used.LatHist = profile.New().Hist("latency.test", "test")
		streamOutObs(used, hbuf, hmem, &fakeFetch{}, &Stats{}, int(histN)%size, int64(histCycles))

		buf, _ := NewBuffer(4, nil)
		mem, fetch, stats := streamMem(8, size), &fakeFetch{lat: 9}, &Stats{}
		if err := used.Reset(buf, mem, fetch, 2, "B", start, stride, stats, nil); err != nil {
			t.Log(err)
			return false
		}
		fbuf, _ := NewBuffer(4, nil)
		fmem, ffetch, fstats := streamMem(8, size), &fakeFetch{lat: 9}, &Stats{}
		fresh, err := NewStreamOut(fbuf, fmem, ffetch, 2, "B", start, stride, fstats, nil)
		if err != nil {
			t.Log(err)
			return false
		}
		if !reflect.DeepEqual(*used, *fresh) {
			t.Log("Reset drain FSM differs from NewStreamOut's")
			return false
		}
		return reflect.DeepEqual(streamOutObs(fresh, fbuf, fmem, ffetch, fstats, count, 1<<14),
			streamOutObs(used, buf, mem, fetch, stats, count, 1<<14))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	buf, _ := NewBuffer(4, nil)
	var fsm StreamOut
	if err := fsm.Reset(buf, streamMem(8, 16), &fakeFetch{}, 0, "Z", 0, 1, &Stats{}, nil); err == nil {
		t.Fatal("Reset accepted an unknown object")
	}
}

// TestRandomPortResetMatchesNew: a random port recycled through Reset —
// after loads and stores, prefilled objects included — equals the port
// NewRandomPort builds, and serves the same accesses identically.
func TestRandomPortResetMatchesNew(t *testing.T) {
	mem, stats := streamMem(8, 64), &Stats{}
	used := NewRandomPort(streamMem(4, 64), &fakeFetch{lat: 2}, 0, &Stats{}, nil)
	used.Prefill = map[string]bool{"A": true}
	for i := int64(0); i < 8; i++ {
		if _, _, err := used.Load("A", i); err != nil {
			t.Fatal(err)
		}
		if _, err := used.Store("B", i, 1); err != nil {
			t.Fatal(err)
		}
	}
	fetch := &fakeFetch{lat: 12}
	used.Reset(mem, fetch, 3, stats, nil)
	fresh := NewRandomPort(mem, fetch, 3, stats, nil)
	if !reflect.DeepEqual(*used, *fresh) {
		t.Fatalf("Reset port %+v differs from NewRandomPort's %+v", *used, *fresh)
	}
	for _, p := range []*RandomPort{fresh, used} {
		v, lat, err := p.Load("A", 5)
		if err != nil || v != 7.5 || lat != 12 {
			t.Fatalf("Load = %g/%d/%v, want 7.5/12/nil", v, lat, err)
		}
	}
	if used.Loads != 1 || stats.DABytes != 16 || stats.IntraBytes != 0 {
		t.Fatalf("after Reset: loads %d, D-A bytes %d, intra bytes %d", used.Loads, stats.DABytes, stats.IntraBytes)
	}
}
