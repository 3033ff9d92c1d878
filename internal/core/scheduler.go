package core

import (
	"cmp"
	"fmt"
	"slices"
)

// EvaledStream is a stream access's configuration after the host evaluates
// its expressions at launch (indices in elements).
type EvaledStream struct {
	Start  int64
	Stride int64
	Length int64
}

// BufferAlloc is one SRAM buffer granted by the hardware scheduler.
// Combined accessors (Fig. 2d case 1) share a buffer and therefore the data
// window fetched for one is reused by the others.
type BufferAlloc struct {
	Buf      int
	Accesses []int
	Obj      string // "" for channel buffers
}

// BufferPlan is the per-launch buffer allocation table entry set (Fig. 2b):
// the access-id → buf-id mapping for one accelerator context. A plan is
// reusable: Plan recomputes it in place, recycling its storage, so a
// simulator planning thousands of launches allocates only while the plan
// grows to the largest accelerator it has seen.
type BufferPlan struct {
	Buffers []BufferAlloc
	// ByAccess maps an access id to its buffer; -1 for accesses without
	// one (random-access ports).
	ByAccess []int

	ids     []int  // backing store of every BufferAlloc.Accesses
	grouped []bool // per access position: already placed in a stream group
}

// PlanBuffers returns a fresh plan for one launch (see BufferPlan.Plan).
func PlanBuffers(a *AccelDef, streams []EvaledStream, combineWindow int64, combining bool) (*BufferPlan, error) {
	plan := &BufferPlan{}
	if err := plan.Plan(a, streams, combineWindow, combining); err != nil {
		return nil, err
	}
	return plan, nil
}

// Plan implements the hardware scheduler's allocation-time reuse detection
// (§IV-C "Reuse"): stream accessors on the same object with the same
// stride whose access distance is a (runtime) constant within the
// buffer-overflow limit are combined onto a single buffer; everything else
// gets its own buffer. streams holds the evaluated stream configurations
// indexed by access id. combineWindow is the limit in elements; combining
// can be disabled for ablation. The previous contents of p, including the
// Accesses slices it handed out, are overwritten.
func (p *BufferPlan) Plan(a *AccelDef, streams []EvaledStream, combineWindow int64, combining bool) error {
	n := len(a.Accesses)
	p.Buffers = p.Buffers[:0]
	p.ByAccess = resize(p.ByAccess, n)
	for i := range p.ByAccess {
		p.ByAccess[i] = -1
	}
	p.grouped = resize(p.grouped, n)
	clear(p.grouped)
	// Every access lands in at most one buffer, so n slots hold them all
	// and the slices handed out below never move.
	if cap(p.ids) < n {
		p.ids = make([]int, 0, n)
	}
	ids := p.ids[:0]
	newBuf := func(obj string, accesses []int) {
		id := len(p.Buffers)
		p.Buffers = append(p.Buffers, BufferAlloc{Buf: id, Accesses: accesses, Obj: obj})
		for _, acc := range accesses {
			p.ByAccess[acc] = id
		}
	}

	for _, acc := range a.Accesses {
		switch acc.Kind {
		case ChanIn, ChanOut:
			ids = append(ids, acc.ID)
			newBuf("", ids[len(ids)-1:])
		case StreamIn, StreamOut:
			if acc.ID < 0 || acc.ID >= len(streams) {
				return fmt.Errorf("core: PlanBuffers: accel %d access %d: missing evaluated stream config", a.ID, acc.ID)
			}
		}
	}
	// Group stream accessors by (object, direction, stride), groups in
	// order of first appearance, members in access order.
	for i, acc := range a.Accesses {
		if (acc.Kind != StreamIn && acc.Kind != StreamOut) || p.grouped[i] {
			continue
		}
		stride := streams[acc.ID].Stride
		lo := len(ids)
		for j := i; j < n; j++ {
			o := &a.Accesses[j]
			if o.Kind == acc.Kind && o.Obj == acc.Obj && streams[o.ID].Stride == stride {
				ids = append(ids, o.ID)
				p.grouped[j] = true
			}
		}
		group := ids[lo:len(ids):len(ids)]
		// Only read streams with positive stride are combinable: a shared
		// window buffer has one fill FSM and per-accessor read pointers.
		if !combining || len(group) == 1 || acc.Kind != StreamIn || stride <= 0 {
			for k := range group {
				newBuf(acc.Obj, group[k:k+1:k+1])
			}
			continue
		}
		// Combine ids whose start distance is a whole number of strides
		// within the window (case 1 of Fig. 2d); non-overlapping accessors
		// are distributed (case 2).
		slices.SortFunc(group, func(x, y int) int { return cmp.Compare(streams[x].Start, streams[y].Start) })
		cur := 0
		base := streams[group[0]].Start
		for k := 1; k < len(group); k++ {
			d := streams[group[k]].Start - base
			if d > combineWindow || d%stride != 0 {
				newBuf(acc.Obj, group[cur:k:k])
				cur, base = k, streams[group[k]].Start
			}
		}
		newBuf(acc.Obj, group[cur:])
	}
	p.ids = ids
	return nil
}

// resize returns s with length n, reallocating only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AllocationTable is the scheduler's per-context record of buffer grants
// (Fig. 2b). It exists for reporting: Table VI's average-#buffers column is
// derived from it.
type AllocationTable struct {
	launches int
	buffers  int64
}

// RecordLaunch notes one accelerator launch and its granted buffer count.
func (t *AllocationTable) RecordLaunch(plan *BufferPlan) {
	t.launches++
	t.buffers += int64(len(plan.Buffers))
}

// AvgBuffers returns the average buffers per launch (0 if never launched).
func (t *AllocationTable) AvgBuffers() float64 {
	if t.launches == 0 {
		return 0
	}
	return float64(t.buffers) / float64(t.launches)
}

// Launches returns the recorded launch count.
func (t *AllocationTable) Launches() int { return t.launches }
