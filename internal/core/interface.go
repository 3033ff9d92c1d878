// Package core defines the Dist-DA offload interface — the paper's primary
// contribution (§IV). It contains the Table II interface mechanisms, the
// distributed accelerator definitions the compiler emits (Fig. 3-4), and the
// hardware scheduler's buffer-allocation table with runtime multi-access
// combining (Fig. 2b/2d).
//
// The package is deliberately free of any execution-substrate types: the
// same definitions are mapped onto in-order cores or CGRA fabrics by the
// simulator, which is exactly the architecture-agnosticism requirement R3.
package core

import (
	"fmt"

	"distda/internal/ir"
	"distda/internal/microcode"
)

// Intrinsic enumerates the MMIO-based interface mechanisms of Table II.
type Intrinsic int

const (
	CpConfig Intrinsic = iota
	CpConfigStream
	CpConfigRandom
	CpProduce
	CpConsume
	CpStep
	CpFillBuf
	CpDrainBuf
	CpWrite
	CpRead
	CpFillRA
	CpDrainRA
	CpSetRF
	CpLoadRF
	CpRun
	NumIntrinsics
)

var intrinsicNames = [...]string{
	CpConfig: "cp_config", CpConfigStream: "cp_config_stream", CpConfigRandom: "cp_config_random",
	CpProduce: "cp_produce", CpConsume: "cp_consume", CpStep: "cp_step",
	CpFillBuf: "cp_fill_buf", CpDrainBuf: "cp_drain_buf",
	CpWrite: "cp_write", CpRead: "cp_read", CpFillRA: "cp_fill_ra", CpDrainRA: "cp_drain_ra",
	CpSetRF: "cp_set_rf", CpLoadRF: "cp_load_rf", CpRun: "cp_run",
}

func (i Intrinsic) String() string {
	if int(i) < len(intrinsicNames) {
		return intrinsicNames[i]
	}
	return fmt.Sprintf("intrinsic(%d)", int(i))
}

// Intrinsics lists all mechanisms in Table II order.
func Intrinsics() []Intrinsic {
	out := make([]Intrinsic, NumIntrinsics)
	for i := range out {
		out[i] = Intrinsic(i)
	}
	return out
}

// IntrinsicStats counts dynamic uses of each mechanism. Host-side counts
// feed the %init column of Table VI; the used-set feeds Table V.
type IntrinsicStats [NumIntrinsics]int64

// Record counts one invocation.
func (s *IntrinsicStats) Record(i Intrinsic) { s[i]++ }

// Total returns all invocations.
func (s *IntrinsicStats) Total() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// Used reports whether the mechanism was invoked at least once.
func (s *IntrinsicStats) Used(i Intrinsic) bool { return s[i] > 0 }

// Merge adds other's counts into s.
func (s *IntrinsicStats) Merge(other *IntrinsicStats) {
	for i := range s {
		s[i] += other[i]
	}
}

// AccessKind classifies an access-id declaration.
type AccessKind int

const (
	// StreamIn: the access unit's FSM prefetches a strided pattern from the
	// anchored memory object into the buffer; the accelerator consumes.
	StreamIn AccessKind = iota
	// StreamOut: the accelerator produces; the FSM drains to the object.
	StreamOut
	// ChanIn: operands arrive from a peer accelerator over the NoC (Fig. 4).
	ChanIn
	// ChanOut: operands are forwarded to a peer accelerator.
	ChanOut
)

var accessKindNames = [...]string{"stream_in", "stream_out", "chan_in", "chan_out"}

func (k AccessKind) String() string {
	if int(k) < len(accessKindNames) {
		return accessKindNames[k]
	}
	return fmt.Sprintf("accesskind(%d)", int(k))
}

// PeerRef names the remote endpoint of a channel access.
type PeerRef struct {
	Accel  int // AccelDef.ID
	Access int // access-id within that accel
}

// AccessDecl declares one access-id of an accelerator definition. Stream
// configuration expressions (Start/Stride/Length in elements) are evaluated
// by the host at launch time with the current outer induction variables —
// this is what cp_config_stream transfers.
type AccessDecl struct {
	ID        int
	Kind      AccessKind
	Obj       string // memory object (streams only)
	ElemBytes int
	Start     ir.Expr // first element index (streams)
	Stride    ir.Expr // element stride between iterations (streams)
	Length    ir.Expr // elements transferred per launch (streams)
	Peer      PeerRef // channels only
}

// TripKind selects the orchestrator's iteration condition (§IV-A: "the
// orchestrator contains the necessary conditions to iterate a given offload
// function, based on loop induction variables or the presence of an input
// value").
type TripKind int

const (
	// TripCounted: iterate a count evaluated at launch.
	TripCounted TripKind = iota
	// TripWhileInput: iterate while the named input channel delivers values
	// (terminates on the producer's end-of-stream).
	TripWhileInput
)

// TripSpec is an accelerator's orchestrator condition.
type TripSpec struct {
	Kind        TripKind
	Count       ir.Expr // TripCounted
	InputAccess int     // TripWhileInput: access-id to watch
}

// Placement is the compiler's vertical placement hint (§V-A-4).
type Placement int

const (
	// PlaceL3: co-locate with the anchored object's home L3 cluster.
	PlaceL3 Placement = iota
	// PlaceHost: short irregular accesses stay near the host, where the
	// control transfer is amortizable.
	PlaceHost
)

func (p Placement) String() string {
	if p == PlaceL3 {
		return "L3"
	}
	return "host"
}

// ScalarBind moves one scalar between a host expression/local and an
// accelerator register (cp_set_rf / cp_load_rf).
type ScalarBind struct {
	Reg  int
	Name string  // host local name (outputs) or diagnostic label (inputs)
	Expr ir.Expr // inputs: evaluated by the host at launch
}

// AccelDef is one distributed accelerator definition (Fig. 3-4): a
// partition of the offloaded DFG with co-located control.
type AccelDef struct {
	ID         int
	Name       string
	Objects    []string // memory objects accessed by this partition
	AnchorObj  string   // object anchoring the home cluster ("" with PlaceHost)
	Place      Placement
	Accesses   []AccessDecl
	Program    microcode.Program
	Trip       TripSpec
	ScalarInit []ScalarBind
	ScalarOut  []ScalarBind
	// Prefill names objects block-fetched into the accel's buffer at launch
	// via cp_fill_ra (user-annotated schedules, §VI-D); random loads of
	// these objects then hit the local SRAM.
	Prefill []string
}

// Access returns the declaration of access-id id.
func (a *AccelDef) Access(id int) (AccessDecl, bool) {
	if id < 0 || id >= len(a.Accesses) {
		return AccessDecl{}, false
	}
	return a.Accesses[id], true
}

// RegionClass is the conservative DFG classification of §V-A-2.
type RegionClass int

const (
	// ClassParallelizable: partitionable, no loop-carried memory dependence.
	ClassParallelizable RegionClass = iota
	// ClassPipelinable: partitionable but serialized by irregular writes.
	ClassPipelinable
	// ClassNotOffloaded: unresolved pointers or dependence cycles.
	ClassNotOffloaded
)

func (c RegionClass) String() string {
	switch c {
	case ClassParallelizable:
		return "parallelizable"
	case ClassPipelinable:
		return "pipelinable"
	default:
		return "not-offloaded"
	}
}

// Region is a compiled offload region: the innermost loop it replaces plus
// the distributed accelerator definitions executing it.
type Region struct {
	Name   string
	Loop   *ir.For
	Class  RegionClass
	Accels []*AccelDef
	// FoldedEpilogue: the store statement immediately following Loop was
	// folded into the offload (executed by the accelerator on the last
	// iteration); the host skips it and needs no scalar read-back.
	FoldedEpilogue bool
}

// Validate checks structural consistency: dense access ids, channel peers
// that exist and point back, stream fields present, and valid programs.
func (r *Region) Validate() error {
	byID := map[int]*AccelDef{}
	for _, a := range r.Accels {
		if _, dup := byID[a.ID]; dup {
			return fmt.Errorf("core: region %q: duplicate accel id %d", r.Name, a.ID)
		}
		byID[a.ID] = a
	}
	for _, a := range r.Accels {
		for i, acc := range a.Accesses {
			if acc.ID != i {
				return fmt.Errorf("core: region %q accel %d: access ids not dense (%d at %d)", r.Name, a.ID, acc.ID, i)
			}
			if acc.ElemBytes <= 0 {
				return fmt.Errorf("core: region %q accel %d access %d: elem bytes %d", r.Name, a.ID, i, acc.ElemBytes)
			}
			switch acc.Kind {
			case StreamIn, StreamOut:
				if acc.Obj == "" {
					return fmt.Errorf("core: region %q accel %d access %d: stream without object", r.Name, a.ID, i)
				}
				if acc.Start == nil || acc.Stride == nil || acc.Length == nil {
					return fmt.Errorf("core: region %q accel %d access %d: stream missing config", r.Name, a.ID, i)
				}
			case ChanIn, ChanOut:
				peer, ok := byID[acc.Peer.Accel]
				if !ok {
					return fmt.Errorf("core: region %q accel %d access %d: unknown peer accel %d", r.Name, a.ID, i, acc.Peer.Accel)
				}
				pacc, ok := peer.Access(acc.Peer.Access)
				if !ok {
					return fmt.Errorf("core: region %q accel %d access %d: unknown peer access %d", r.Name, a.ID, i, acc.Peer.Access)
				}
				wantKind := ChanOut
				if acc.Kind == ChanOut {
					wantKind = ChanIn
				}
				if pacc.Kind != wantKind || pacc.Peer.Accel != a.ID || pacc.Peer.Access != acc.ID {
					return fmt.Errorf("core: region %q accel %d access %d: peer does not point back", r.Name, a.ID, i)
				}
			default:
				return fmt.Errorf("core: region %q accel %d access %d: unknown kind", r.Name, a.ID, i)
			}
		}
		if err := a.Program.Validate(len(a.Accesses)); err != nil {
			return fmt.Errorf("core: region %q accel %d: %v", r.Name, a.ID, err)
		}
		if a.Trip.Kind == TripCounted && a.Trip.Count == nil {
			return fmt.Errorf("core: region %q accel %d: counted trip without count", r.Name, a.ID)
		}
		if a.Trip.Kind == TripWhileInput {
			acc, ok := a.Access(a.Trip.InputAccess)
			if !ok || (acc.Kind != ChanIn && acc.Kind != StreamIn) {
				return fmt.Errorf("core: region %q accel %d: while-input trip needs an input access", r.Name, a.ID)
			}
		}
		for _, sb := range append(append([]ScalarBind{}, a.ScalarInit...), a.ScalarOut...) {
			if sb.Reg < 0 || sb.Reg >= microcode.NumRegs {
				return fmt.Errorf("core: region %q accel %d: scalar bind register %d out of range", r.Name, a.ID, sb.Reg)
			}
		}
	}
	return nil
}
