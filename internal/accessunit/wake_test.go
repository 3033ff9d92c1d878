package accessunit

import (
	"strings"
	"testing"

	"distda/internal/engine"
	"distda/internal/noc"
)

// The wake contract: the engine trusts a component's NextEvent claim until
// its latch is woken, so every queue mutation that can move a subscriber's
// claim earlier must wake it. These tests observe wakes through a real
// engine rather than the latch's internals.

// wakeProbe claims Never after every step, so only a wake steps it again.
type wakeProbe struct {
	latch engine.Latch
	steps int
}

func (p *wakeProbe) Step(int64) bool       { p.steps++; return false }
func (p *wakeProbe) Done() bool            { return false }
func (p *wakeProbe) NextEvent(int64) int64 { return engine.Never }
func (p *wakeProbe) Latch() *engine.Latch  { return &p.latch }

// oneShot runs act on its only step.
type oneShot struct {
	act  func()
	done bool
}

func (o *oneShot) Step(int64) bool { o.act(); o.done = true; return true }
func (o *oneShot) Done() bool      { return o.done }

// wakes reports whether act wakes a probe that sub wired up. The probe
// steps first on the run's first edge and goes to sleep; act runs right
// after it on the same edge. A woken probe steps once more before the
// engine reports the deadlock that ends the run either way.
func wakes(t *testing.T, sub func(*engine.Latch), act func()) bool {
	t.Helper()
	p := &wakeProbe{}
	sub(&p.latch)
	e := engine.New()
	e.Add(p, 1)
	e.Add(&oneShot{act: act}, 1)
	if _, err := e.Run(1 << 10); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("run ended with %v, want the sleeping probe's deadlock", err)
	}
	return p.steps > 1
}

func TestBufferMutatorsWake(t *testing.T) {
	for _, tc := range []struct {
		name string
		// setup prepares the buffer before the run and returns the
		// mutation under test.
		setup func(b *Buffer) func()
		want  bool
	}{
		{"push", func(b *Buffer) func() {
			b.AttachReader(0)
			return func() { b.Push(1) }
		}, true},
		{"close", func(b *Buffer) func() {
			b.AttachReader(0)
			return b.Close
		}, true},
		{"attach-reader", func(b *Buffer) func() {
			return func() { b.AttachReader(0) }
		}, true},
		{"pop-at-watermark", func(b *Buffer) func() {
			r := b.AttachReader(0)
			b.Push(1)
			return func() { b.Pop(r) }
		}, true},
		{"skip-at-watermark", func(b *Buffer) func() {
			r := b.AttachReader(0)
			b.Push(1)
			b.Push(2)
			return func() { b.Skip(r, 2) }
		}, true},
		// Only the slowest reader's pops free space; a reader ahead of it
		// changes nothing but its own view, which its owner re-reads after
		// its own step, so it need not wake anyone.
		{"pop-ahead-of-watermark", func(b *Buffer) func() {
			fast := b.AttachReader(0)
			b.AttachReader(0)
			b.Push(1)
			b.Push(2)
			b.Pop(fast)
			return func() { b.Pop(fast) }
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, _ := NewBuffer(4, nil)
			act := tc.setup(b)
			if got := wakes(t, b.Subscribe, act); got != tc.want {
				t.Fatalf("woke subscriber = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestLocalWireSendWakesReceiver(t *testing.T) {
	var w LocalWire
	if !wakes(t, func(l *engine.Latch) { w.rx = l }, func() { w.Send(LinkMsg{At: 5}) }) {
		t.Fatal("Send did not wake the receiving half")
	}
	// A link wires each wire's receiver: elements wake LinkRx, credits
	// wake LinkTx.
	src, _ := NewBuffer(4, nil)
	dst, _ := NewBuffer(4, nil)
	tx, rx := NewLocalLink(src, dst, noc.New(noc.DefaultConfig(), nil), 0, 1, 8, &Stats{})
	if tx.out.rx != rx.Latch() || rx.credits.rx != tx.Latch() {
		t.Fatal("link wires do not wake their receiving halves")
	}
}

// TestStreamComponentsSubscribe: every access-unit component is subscribed
// to each buffer its NextEvent reads.
func TestStreamComponentsSubscribe(t *testing.T) {
	subscribed := func(b *Buffer, l *engine.Latch) bool {
		for _, s := range b.subs {
			if s == l {
				return true
			}
		}
		return false
	}
	mem := newFakeMem(8, map[string][]float64{"A": {1, 2, 3, 4}})
	fetch := &fakeFetch{lat: 10}
	in, _ := NewBuffer(4, nil)
	fill, err := NewStreamIn(in, mem, fetch, 0, "A", 0, 1, 4, &Stats{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := NewBuffer(4, nil)
	drain, err := NewStreamOut(out, mem, fetch, 0, "A", 0, 1, &Stats{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := NewBuffer(4, nil)
	dst, _ := NewBuffer(4, nil)
	tx, rx := NewLocalLink(src, dst, nil, 0, 0, 8, &Stats{})
	for _, c := range []struct {
		name string
		b    *Buffer
		l    *engine.Latch
	}{
		{"StreamIn", in, fill.Latch()},
		{"StreamOut", out, drain.Latch()},
		{"LinkTx", src, tx.Latch()},
		{"LinkRx", dst, rx.Latch()},
	} {
		if !subscribed(c.b, c.l) {
			t.Errorf("%s is not subscribed to its buffer", c.name)
		}
	}
}
