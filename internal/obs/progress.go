package obs

import (
	"sync"
	"time"
)

// Progress tracks live completion of a run of cells on the wall clock: the
// feed of distda-repro's -http /progress view and of a served job's
// progress. Per-cell completion records feed it, and Snapshot produces the
// JSON progress/ETA view. It is safe for concurrent use.
type Progress struct {
	mu       sync.Mutex
	start    time.Time // zero until the clock starts
	end      time.Time // zero until the clock stops
	total    int
	done     int
	degraded int
	resumed  int
	last     CellStatus
	now      func() time.Time // the clock; nil means time.Now
}

// CellStatus describes one completed cell.
type CellStatus struct {
	Workload string        `json:"workload"`
	Config   string        `json:"config"`
	Index    int           `json:"-"` // the cell's position in the plan (dispatch order)
	Total    int           `json:"-"` // total cells in the plan
	Dur      time.Duration `json:"-"`
	DurMS    float64       `json:"dur_ms"`   // Dur in ms, set by Record
	Degraded bool          `json:"degraded"` // cell timed out and renders n/a
	Resumed  bool          `json:"resumed"`  // restored from a checkpoint, not re-simulated
}

// NewProgress returns a progress tracker whose clock starts now. A
// zero Progress reports no elapsed time until Start.
func NewProgress() *Progress {
	p := new(Progress)
	p.Start(nil)
	return p
}

// Start starts p's clock at now(); later snapshots read the time from
// now too (nil means time.Now). Safe on nil and for concurrent use.
func (p *Progress) Start(now func() time.Time) {
	if p == nil {
		return
	}
	if now == nil {
		now = time.Now
	}
	p.mu.Lock()
	p.now, p.start, p.end = now, now(), time.Time{}
	p.mu.Unlock()
}

// Stop freezes a started clock: later snapshots report the time elapsed
// up to now. Safe on nil and for concurrent use.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.start.IsZero() && p.end.IsZero() {
		p.end = p.now()
	}
	p.mu.Unlock()
}

// SetTotal sets the expected cell count before the first cell completes
// (a served run job counts one cell while it runs). Safe on nil and for
// concurrent use.
func (p *Progress) SetTotal(total int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.total = total
	p.mu.Unlock()
}

// Record accounts one completed cell; its Total becomes the expected cell
// count. Safe on nil and for concurrent use.
func (p *Progress) Record(st CellStatus) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total = st.Total
	p.done++
	if st.Degraded {
		p.degraded++
	}
	if st.Resumed {
		p.resumed++
	}
	st.DurMS = float64(st.Dur) / float64(time.Millisecond)
	p.last = st
}

// Snapshot is the JSON view served at /progress.
type Snapshot struct {
	Total       int        `json:"total"`
	Done        int        `json:"done"`
	Degraded    int        `json:"degraded"`
	Resumed     int        `json:"resumed"`
	PercentDone float64    `json:"percent_done"`
	ElapsedS    float64    `json:"elapsed_s"`
	ETAS        float64    `json:"eta_s"` // estimated seconds remaining (0 when unknown/finished)
	Last        CellStatus `json:"last_cell"`
}

// Snapshot returns the current progress view. The ETA extrapolates the
// per-cell rate of the cells run so far over the remaining cells; resumed
// cells complete at once and do not count toward the rate, so the ETA is 0
// until the first cell that ran completes. Safe on nil (returns the zero
// snapshot).
func (p *Progress) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var elapsed time.Duration
	switch {
	case p.start.IsZero(): // not started
	case !p.end.IsZero():
		elapsed = p.end.Sub(p.start)
	default:
		elapsed = p.now().Sub(p.start)
	}
	s := Snapshot{
		Total:    p.total,
		Done:     p.done,
		Degraded: p.degraded,
		Resumed:  p.resumed,
		ElapsedS: elapsed.Seconds(),
		Last:     p.last,
	}
	if p.total > 0 {
		s.PercentDone = 100 * float64(p.done) / float64(p.total)
	}
	if ran := p.done - p.resumed; ran > 0 && p.done < p.total {
		perCell := elapsed / time.Duration(ran)
		s.ETAS = (perCell * time.Duration(p.total-p.done)).Seconds()
	}
	return s
}
