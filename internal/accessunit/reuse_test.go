package accessunit

import (
	"testing"
	"testing/quick"
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
	bit := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
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
		obs = append(obs, bit(b.minSeq == scan()), bit(b.CanPush()), bit(b.CanPop(r)),
			b.Level(r), b.Occupancy(), bit(b.Closed()), bit(b.Drained(r)), b.Pushes, b.Pops)
	}
	return append(obs, int64(b.Cap()))
}

// TestBufferResetMatchesNew: a buffer recycled through Reset — after any
// history, at any capacity — is observationally equal to a NewBuffer under
// the watermark-invariant op mix.
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
		bufObs(used, history)
		if err := used.Reset(capElems, nil); err != nil {
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
}
