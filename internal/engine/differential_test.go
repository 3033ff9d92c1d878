package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The differential fuzz drives randomly wired producer/worker/sink
// pipelines — components with mixed clock divisors, random latencies,
// bounded queues (back-pressure), and a mix of hinted and poll-only
// components — through both schedulers and requires identical elapsed
// cycles and identical per-component effect sequences.

// fq is a bounded FIFO connecting two stages. Like the simulator's
// buffers, it wakes its subscribers on every mutation.
type fq struct {
	vals   []int
	cap    int
	closed bool
	subs   []*Latch
}

func (q *fq) canPush() bool { return len(q.vals) < q.cap }
func (q *fq) canPop() bool  { return len(q.vals) > 0 }

func (q *fq) wake() {
	for _, l := range q.subs {
		l.Wake()
	}
}

func (q *fq) push(v int) { q.vals = append(q.vals, v); q.wake() }
func (q *fq) pop()       { q.vals = q.vals[1:]; q.wake() }
func (q *fq) close()     { q.closed = true; q.wake() }

// effect is one observable state change: which component, at which base
// cycle, doing what.
type effect struct {
	id   int
	now  int64
	kind string
}

// stage produces (in == nil), transforms, or sinks (out == nil) items,
// spending a random latency per item. Latencies are drawn only at effect
// points, so the rng stream is identical whenever the effect sequences
// are.
type stage struct {
	id        int
	in, out   *fq
	produce   int // items to generate when in == nil
	generated int
	holding   bool
	busyUntil int64
	done      bool
	rng       *rand.Rand
	maxLat    int64
	log       *[]effect
	latch     Latch
}

func (s *stage) note(now int64, kind string) {
	*s.log = append(*s.log, effect{id: s.id, now: now, kind: kind})
}

func (s *stage) Done() bool { return s.done }

func (s *stage) Step(now int64) bool {
	if s.done {
		return false
	}
	if now < s.busyUntil {
		return true // latency timer
	}
	if s.holding {
		if s.out != nil && !s.out.canPush() {
			return false // blocked on full output
		}
		if s.out != nil {
			s.out.push(1)
			s.note(now, "push")
		} else {
			s.note(now, "sink")
		}
		s.holding = false
		return true
	}
	if s.in == nil {
		if s.generated < s.produce {
			s.generated++
			s.holding = true
			s.busyUntil = now + s.rng.Int63n(s.maxLat+1)
			s.note(now, "gen")
			return true
		}
	} else {
		if s.in.canPop() {
			s.in.pop()
			s.holding = true
			s.busyUntil = now + s.rng.Int63n(s.maxLat+1)
			s.note(now, "pop")
			return true
		}
		if !s.in.closed {
			return false // blocked on empty input
		}
	}
	// Source exhausted (or input drained): finish.
	if s.out != nil {
		s.out.close()
	}
	s.done = true
	s.note(now, "done")
	return true
}

// Latch implements Hinter; the stage's queues wake it.
func (s *stage) Latch() *Latch { return &s.latch }

// NextEvent implements Hinter with the same case analysis as Step.
func (s *stage) NextEvent(now int64) int64 {
	if s.done {
		return Finished
	}
	if now < s.busyUntil {
		return s.busyUntil
	}
	if s.holding {
		if s.out != nil && !s.out.canPush() {
			return Never // blocked on the consumer
		}
		return 0
	}
	if s.in == nil {
		return 0 // can generate or finish now
	}
	if s.in.canPop() || s.in.closed {
		return 0
	}
	return Never // blocked on the producer
}

// noHint hides a stage's NextEvent so the engine must poll it.
type noHint struct{ s *stage }

func (n noHint) Step(now int64) bool { return n.s.Step(now) }
func (n noHint) Done() bool          { return n.s.Done() }

// buildPipelines constructs a random component set from seed, appending
// effects to log. Construction is deterministic in seed so the naive and
// fast engines get bit-identical component sets.
func buildPipelines(seed int64, log *[]effect, e *Engine) {
	rng := rand.New(rand.NewSource(seed))
	ghzChoices := []int{1, 2, 3, 6}
	id := 0
	chains := 1 + rng.Intn(4)
	for c := 0; c < chains; c++ {
		depth := 1 + rng.Intn(4)
		var prev *fq
		for d := 0; d < depth; d++ {
			s := &stage{
				id:     id,
				in:     prev,
				rng:    rand.New(rand.NewSource(seed*1000 + int64(id))),
				maxLat: int64(rng.Intn(31)),
				log:    log,
			}
			id++
			if d == 0 {
				s.produce = 1 + rng.Intn(50)
			}
			if d < depth-1 {
				s.out = &fq{cap: 1 + rng.Intn(4)}
				prev = s.out
			}
			ghz := ghzChoices[rng.Intn(len(ghzChoices))]
			if rng.Intn(4) == 0 {
				e.Add(noHint{s}, ghz) // poll-only component
			} else {
				for _, q := range []*fq{s.in, s.out} {
					if q != nil {
						q.subs = append(q.subs, &s.latch)
					}
				}
				e.Add(s, ghz)
			}
		}
	}
}

func TestDifferentialFuzzFastVsNaive(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		var naiveLog []effect

		en := New()
		en.Mode = ModeNaive
		buildPipelines(seed, &naiveLog, en)
		nElapsed, nErr := en.Run(1 << 22)
		if nErr != nil {
			t.Fatalf("seed %d: naive err=%v", seed, nErr)
		}

		var fastLog []effect
		ef := New()
		buildPipelines(seed, &fastLog, ef)
		fElapsed, fErr := ef.Run(1 << 22)
		if fErr != nil {
			t.Fatalf("seed %d: default err=%v", seed, fErr)
		}
		if nElapsed != fElapsed {
			t.Fatalf("seed %d: elapsed naive=%d default=%d", seed, nElapsed, fElapsed)
		}
		if en.Now() != ef.Now() {
			t.Fatalf("seed %d: Now naive=%d default=%d", seed, en.Now(), ef.Now())
		}
		if !reflect.DeepEqual(naiveLog, fastLog) {
			i := 0
			for i < len(naiveLog) && i < len(fastLog) && naiveLog[i] == fastLog[i] {
				i++
			}
			t.Fatalf("seed %d: effect logs diverge at index %d:\nnaive:   %v\ndefault: %v",
				seed, i, tail(naiveLog, i), tail(fastLog, i))
		}
	}
}

// TestAdaptiveModeSwitches drives a dense poll-only population, a sparse
// sleeping one and one that turns from the first into the second, and
// checks the default scheduler agrees with the naive reference on each
// (belt and braces on top of the fuzz).
func TestAdaptiveModeSwitches(t *testing.T) {
	type buildCase struct {
		name  string
		build func(*Engine)
	}
	for _, bc := range []buildCase{
		{"dense", buildDense},
		{"sparse", buildSparse},
		{"mixed", func(e *Engine) {
			// Dense phase followed by a sparse tail: tickers drain first,
			// then only the sleepers' timers remain to jump between.
			for i := 0; i < 8; i++ {
				e.Add(&ticker{n: 1 << 8}, benchGHz[i%len(benchGHz)])
			}
			for i := 0; i < 4; i++ {
				e.Add(&sleeper{items: 16, latency: 2500}, benchGHz[i%len(benchGHz)])
			}
		}},
	} {
		en := New()
		en.Mode = ModeNaive
		bc.build(en)
		want, err := en.Run(1 << 30)
		if err != nil {
			t.Fatalf("%s: naive: %v", bc.name, err)
		}
		ea := New()
		bc.build(ea)
		got, err := ea.Run(1 << 30)
		if err != nil {
			t.Fatalf("%s: adaptive: %v", bc.name, err)
		}
		if got != want {
			t.Errorf("%s: adaptive elapsed %d, naive %d", bc.name, got, want)
		}
	}
}

func tail(log []effect, i int) []effect {
	if i > len(log) {
		i = len(log)
	}
	end := i + 5
	if end > len(log) {
		end = len(log)
	}
	return log[i:end]
}

// TestFastForwardJumps verifies the fast scheduler actually skips idle
// spans: a single hinted component with a long latency must be stepped
// only at its effect edges, not on every clock edge in between.
type countingWaiter struct {
	latency int64
	fireAt  int64
	fired   bool
	steps   int
	latch   Latch
}

func (c *countingWaiter) Step(now int64) bool {
	c.steps++
	if c.fireAt == 0 {
		c.fireAt = now + c.latency
		return true
	}
	if now >= c.fireAt {
		c.fired = true
	}
	return true
}
func (c *countingWaiter) Done() bool    { return c.fired }
func (c *countingWaiter) Latch() *Latch { return &c.latch }
func (c *countingWaiter) NextEvent(now int64) int64 {
	if c.fired {
		return Finished
	}
	if c.fireAt > now {
		return c.fireAt
	}
	return 0
}

func TestFastForwardJumps(t *testing.T) {
	w := &countingWaiter{latency: 6000}
	e := New()
	e.Add(w, 2)
	elapsed, err := e.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if !w.fired {
		t.Fatal("waiter never fired")
	}
	if w.steps > 3 {
		t.Fatalf("fast scheduler stepped a sleeping component %d times, want <= 3", w.steps)
	}
	// The naive path must agree on the elapsed cycles while visiting
	// every edge.
	w2 := &countingWaiter{latency: 6000}
	en := New()
	en.Mode = ModeNaive
	en.Add(w2, 2)
	nElapsed, err := en.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if nElapsed != elapsed {
		t.Fatalf("elapsed: fast %d, naive %d", elapsed, nElapsed)
	}
	if w2.steps <= 3 {
		t.Fatalf("naive scheduler skipped edges (%d steps)", w2.steps)
	}
}

// ---- Add validation (registration misuse is rejected loudly) ----

// adder tries to register a component mid-run.
type adder struct {
	e    *Engine
	done bool
}

func (a *adder) Step(now int64) bool {
	a.e.Add(&ticker{n: 1}, 2)
	a.done = true
	return true
}
func (a *adder) Done() bool { return a.done }

func TestAddDuringRunPanics(t *testing.T) {
	e := New()
	e.Add(&adder{e: e}, 2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic from Add during Run")
		}
		if !strings.Contains(fmt.Sprint(r), "during Run") {
			t.Fatalf("panic = %v", r)
		}
	}()
	_, _ = e.Run(1 << 10)
}

// TestDuplicateAddPanics covers both duplicate checks: a poll-only
// component (found by scanning the entries) and a Hinter (found by its
// attached latch), each registered twice directly and after it finished.
func TestDuplicateAddPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Component
		run  bool // finish the component before adding it again
	}{
		{"poll-only", &ticker{n: 1}, false},
		{"poll-only finished", &ticker{n: 1}, true},
		{"hinter", &sleeper{items: 1, latency: 10}, false},
		{"hinter finished", &sleeper{items: 1, latency: 10}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			e.Add(&ticker{n: 3}, 1) // an unrelated entry ahead of c
			e.Add(tc.c, 2)
			if tc.run {
				if _, err := e.Run(1 << 10); err != nil {
					t.Fatal(err)
				}
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic from duplicate Add")
				}
				if !strings.Contains(fmt.Sprint(r), "registered twice") {
					t.Fatalf("panic = %v", r)
				}
			}()
			e.Add(tc.c, 1)
		})
	}
}

func TestAddNilPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic from Add(nil)")
		}
	}()
	e.Add(nil, 2)
}

func TestAddBetweenRunsStaysLegal(t *testing.T) {
	e := New()
	e.Add(&ticker{n: 2}, 2)
	if _, err := e.Run(1 << 16); err != nil {
		t.Fatal(err)
	}
	e.Add(&ticker{n: 2}, 2) // must not panic
	if _, err := e.Run(1 << 16); err != nil {
		t.Fatal(err)
	}
}

func TestZeroValueEngineAdd(t *testing.T) {
	var e Engine
	e.Add(&ticker{n: 1}, 2)
	if _, err := e.Run(1 << 10); err != nil {
		t.Fatal(err)
	}
}

// TestNaiveSchedulerMatchesOriginalSemantics re-runs the package's
// pre-existing scheduler expectations under Naive for both error paths.
func TestNaiveSchedulerErrors(t *testing.T) {
	e := New()
	e.Mode = ModeNaive
	e.Add(stuck{}, 2)
	if _, err := e.Run(1 << 20); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v", err)
	}
	e2 := New()
	e2.Mode = ModeNaive
	e2.Add(&ticker{n: 1 << 30}, 2)
	if _, err := e2.Run(100); err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v", err)
	}
}

// Deadlock and budget errors must agree between the schedulers for pure
// poll-only component sets (the error cycle is part of the message).
func TestErrorParityOnPollers(t *testing.T) {
	for _, ghz := range []int{1, 2, 3, 6} {
		en := New()
		en.Mode = ModeNaive
		en.Add(stuck{}, ghz)
		_, nErr := en.Run(1 << 20)
		ef := New()
		ef.Add(stuck{}, ghz)
		_, fErr := ef.Run(1 << 20)
		if nErr == nil || fErr == nil || nErr.Error() != fErr.Error() {
			t.Fatalf("%d GHz: naive=%v fast=%v", ghz, nErr, fErr)
		}

		en2 := New()
		en2.Mode = ModeNaive
		en2.Add(&ticker{n: 1 << 30}, ghz)
		ne, nErr := en2.Run(1000)
		ef2 := New()
		ef2.Add(&ticker{n: 1 << 30}, ghz)
		fe, fErr := ef2.Run(1000)
		if nErr == nil || fErr == nil || nErr.Error() != fErr.Error() || ne != fe {
			t.Fatalf("%d GHz budget: naive=(%d,%v) fast=(%d,%v)", ghz, ne, nErr, fe, fErr)
		}
	}
}
