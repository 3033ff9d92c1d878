package engine

import (
	"reflect"
	"testing"
)

// TestResetMatchesFresh: an engine that ran an unrelated component set and
// was Reset schedules a new set exactly as a fresh engine does.
func TestResetMatchesFresh(t *testing.T) {
	for _, mode := range []Mode{ModeAdaptive, ModeEvent, ModeNaive} {
		build := func(e *Engine) []*ticker {
			ts := []*ticker{{n: 5}, {n: 9}, {n: 3}}
			e.Add(ts[0], 1)
			e.Add(ts[1], 3)
			e.Add(ts[2], 2)
			return ts
		}
		fresh := New()
		fresh.Mode, fresh.CollectFF = mode, true
		want := build(fresh)
		wantElapsed, err := fresh.Run(1 << 16)
		if err != nil {
			t.Fatal(err)
		}

		reused := New()
		reused.Mode, reused.CollectFF = mode, true
		reused.Add(&ticker{n: 40}, 6)
		reused.Add(&ticker{n: 7}, 2)
		reused.Add(&ticker{n: 3}, 1)
		reused.Add(&ticker{n: 11}, 3)
		if _, err := reused.Run(1 << 16); err != nil {
			t.Fatal(err)
		}
		reused.Reset()
		if reused.Now() != 0 || reused.Live() != 0 || reused.FFJumps != 0 || reused.FFSkipped != 0 {
			t.Fatalf("%s: Reset left now=%d live=%d ff=%d/%d", mode, reused.Now(), reused.Live(), reused.FFJumps, reused.FFSkipped)
		}
		got := build(reused)
		gotElapsed, err := reused.Run(1 << 16)
		if err != nil {
			t.Fatal(err)
		}
		if gotElapsed != wantElapsed || reused.FFJumps != fresh.FFJumps || reused.FFSkipped != fresh.FFSkipped {
			t.Fatalf("%s: reused engine elapsed %d (ff %d/%d), fresh %d (ff %d/%d)", mode,
				gotElapsed, reused.FFJumps, reused.FFSkipped, wantElapsed, fresh.FFJumps, fresh.FFSkipped)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i].seen, want[i].seen) {
				t.Fatalf("%s: component %d stepped at %v after Reset, %v fresh", mode, i, got[i].seen, want[i].seen)
			}
		}
	}
}

// counter finishes after n steps without recording anything.
type counter struct{ n, steps int }

func (c *counter) Step(int64) bool { c.steps++; return true }
func (c *counter) Done() bool      { return c.steps >= c.n }

// TestResetReuseAllocFree: a launch cycle of Reset, Add and Run on a
// warmed-up engine allocates nothing.
func TestResetReuseAllocFree(t *testing.T) {
	e := New()
	cs := [...]*counter{{n: 4}, {n: 6}, {n: 2}}
	ghz := [...]int{1, 2, 3}
	launch := func() {
		e.Reset()
		for i, c := range cs {
			c.steps = 0
			e.Add(c, ghz[i])
		}
		if _, err := e.Run(1 << 16); err != nil {
			t.Fatal(err)
		}
	}
	launch()
	if n := testing.AllocsPerRun(50, launch); n != 0 {
		t.Fatalf("Reset+Add+Run allocates %.1f times per launch", n)
	}
}

// TestResetAllowsReregistration: a component registered before Reset may
// be registered again after it.
func TestResetAllowsReregistration(t *testing.T) {
	e := New()
	c := &counter{n: 1}
	e.Add(c, 2)
	e.Reset()
	e.Add(c, 2) // must not panic as a duplicate
	if e.Live() != 1 {
		t.Fatalf("live = %d", e.Live())
	}
}
