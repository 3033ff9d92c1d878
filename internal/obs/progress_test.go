package obs

import (
	"testing"
	"time"
)

func TestProgressSnapshot(t *testing.T) {
	base := time.Unix(1000, 0)
	now := base
	p := NewProgress()
	p.start = base
	p.now = func() time.Time { return now }

	if s := p.Snapshot(); s.Done != 0 || s.ETAS != 0 || s.PercentDone != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}

	now = base.Add(10 * time.Second)
	p.Record(CellStatus{Workload: "fdtd-2d", Config: "Dist-DA-F", Total: 4, Dur: 2 * time.Second})
	p.Record(CellStatus{Workload: "bfs", Config: "OoO", Total: 4, Dur: time.Second, Degraded: true})
	s := p.Snapshot()
	if s.Done != 2 || s.Total != 4 || s.Degraded != 1 {
		t.Errorf("snapshot counts = %+v", s)
	}
	if s.PercentDone != 50 {
		t.Errorf("percent = %v, want 50", s.PercentDone)
	}
	// 2 cells in 10s -> 5s per cell -> 2 remaining -> 10s ETA.
	if s.ETAS != 10 {
		t.Errorf("eta = %v, want 10", s.ETAS)
	}
	if s.Last.Workload != "bfs" || !s.Last.Degraded || s.Last.DurMS != 1000 {
		t.Errorf("last cell = %+v", s.Last)
	}

	// SetTotal rewrites the denominator for callers that know it before
	// the first cell completes.
	p.SetTotal(2)
	if s := p.Snapshot(); s.PercentDone != 100 || s.ETAS != 0 {
		t.Errorf("completed snapshot = %+v", s)
	}

	var nilP *Progress
	nilP.SetTotal(3)
	nilP.Record(CellStatus{})
	if s := nilP.Snapshot(); s != (Snapshot{}) {
		t.Errorf("nil progress snapshot = %+v", s)
	}
}

// TestProgressETAResumed: checkpoint-resumed cells complete at t≈0 and
// must not count toward the per-cell rate. Resume 60 of 72 cells, then run
// one in 10s: 11 cells remain at 10s each, not at 10s/61.
func TestProgressETAResumed(t *testing.T) {
	base := time.Unix(1000, 0)
	now := base
	p := NewProgress()
	p.start = base
	p.now = func() time.Time { return now }
	for i := 0; i < 60; i++ {
		p.Record(CellStatus{Workload: "bfs", Config: "OoO", Index: i, Total: 72, Resumed: true})
	}
	if s := p.Snapshot(); s.Done != 60 || s.Resumed != 60 || s.ETAS != 0 {
		t.Errorf("resumed-only snapshot = %+v, want 60 done and no ETA", s)
	}
	now = base.Add(10 * time.Second)
	p.Record(CellStatus{Workload: "bfs", Config: "Dist-DA-F", Index: 60, Total: 72, Dur: 10 * time.Second})
	if s := p.Snapshot(); s.ETAS != 110 {
		t.Errorf("eta = %vs, want 110s", s.ETAS)
	}
}

// TestProgressStartStop: a zero Progress reports no elapsed time until
// Start, and none beyond Stop.
func TestProgressStartStop(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	var p Progress
	now = now.Add(time.Hour)
	if s := p.Snapshot(); s.ElapsedS != 0 {
		t.Errorf("elapsed before Start = %vs, want 0", s.ElapsedS)
	}
	p.Stop() // not started: no effect
	p.Start(clock)
	now = now.Add(3 * time.Second)
	if s := p.Snapshot(); s.ElapsedS != 3 {
		t.Errorf("elapsed while running = %vs, want 3", s.ElapsedS)
	}
	p.Stop()
	now = now.Add(time.Hour)
	if s := p.Snapshot(); s.ElapsedS != 3 {
		t.Errorf("elapsed after Stop = %vs, want 3", s.ElapsedS)
	}
	var nilP *Progress
	nilP.Start(clock)
	nilP.Stop()
}
