package engine

import "testing"

// sleeper models the sparse case: short bursts of work separated by long
// advertised latencies. The fast scheduler should jump straight between
// bursts; the naive loop visits every intervening clock edge. It reads no
// queue, so nothing ever wakes its latch: only its own timer does.
type sleeper struct {
	items   int
	latency int64
	next    int64
	done    bool
	latch   Latch
}

func (s *sleeper) Step(now int64) bool {
	if now < s.next {
		return true
	}
	if s.items == 0 {
		s.done = true
		return true
	}
	s.items--
	s.next = now + s.latency
	return true
}

func (s *sleeper) Done() bool { return s.done }

func (s *sleeper) Latch() *Latch { return &s.latch }

func (s *sleeper) NextEvent(now int64) int64 {
	if s.done {
		return Finished
	}
	if now >= s.next {
		return 0
	}
	return s.next
}

func benchEngine(b *testing.B, mode Mode, build func(e *Engine)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e := New()
		e.Mode = mode
		build(e)
		if _, err := e.Run(1 << 30); err != nil {
			b.Fatal(err)
		}
	}
}

var benchGHz = []int{1, 2, 3, 6}

// Dense: every component has work on every one of its clock edges, so
// fast-forwarding never jumps. This measures pure scheduler overhead.
func buildDense(e *Engine) {
	for i := 0; i < 64; i++ {
		e.Add(&ticker{n: 1 << 12}, benchGHz[i%len(benchGHz)])
	}
}

// Sparse: components sleep 3000 base cycles between work items — the
// common shape for accelerator models stalled on memory latencies.
func buildSparse(e *Engine) {
	for i := 0; i < 16; i++ {
		e.Add(&sleeper{items: 64, latency: 3000}, benchGHz[i%len(benchGHz)])
	}
}

// The *Fast benchmarks exercise the default (wake-driven) scheduler, the
// *Naive ones the reference loop.
func BenchmarkEngineLoopDenseFast(b *testing.B)  { benchEngine(b, ModeAdaptive, buildDense) }
func BenchmarkEngineLoopDenseNaive(b *testing.B) { benchEngine(b, ModeNaive, buildDense) }

func BenchmarkEngineLoopSparseFast(b *testing.B)  { benchEngine(b, ModeAdaptive, buildSparse) }
func BenchmarkEngineLoopSparseNaive(b *testing.B) { benchEngine(b, ModeNaive, buildSparse) }
