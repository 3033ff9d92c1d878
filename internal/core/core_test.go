package core

import (
	"testing"

	"distda/internal/ir"
	"distda/internal/microcode"
)

func TestIntrinsicNamesAndStats(t *testing.T) {
	if len(Intrinsics()) != int(NumIntrinsics) {
		t.Fatal("Intrinsics() length")
	}
	if CpConfigStream.String() != "cp_config_stream" || CpRun.String() != "cp_run" {
		t.Fatal("intrinsic names")
	}
	var s IntrinsicStats
	s.Record(CpProduce)
	s.Record(CpProduce)
	s.Record(CpRun)
	if s.Total() != 3 || !s.Used(CpProduce) || s.Used(CpRead) {
		t.Fatalf("stats = %+v", s)
	}
	var other IntrinsicStats
	other.Record(CpRead)
	s.Merge(&other)
	if !s.Used(CpRead) || s.Total() != 4 {
		t.Fatal("merge failed")
	}
}

// pipelineRegion builds a two-accel producer/consumer region:
// A0 streams obj X in and forwards over a channel; A1 consumes and streams
// to obj Y.
func pipelineRegion() *Region {
	prog0 := microcode.Program{
		{Code: microcode.Consume, Dst: 1, Access: 0, Pred: -1},
		{Code: microcode.ALUI, Dst: 2, A: 1, Bin: ir.Mul, Imm: 2, Pred: -1},
		{Code: microcode.Produce, A: 2, Access: 1, Pred: -1},
	}
	prog1 := microcode.Program{
		{Code: microcode.Consume, Dst: 1, Access: 0, Pred: -1},
		{Code: microcode.Produce, A: 1, Access: 1, Pred: -1},
	}
	a0 := &AccelDef{
		ID: 0, Name: "A0", Objects: []string{"X"}, AnchorObj: "X", Place: PlaceL3,
		Accesses: []AccessDecl{
			{ID: 0, Kind: StreamIn, Obj: "X", ElemBytes: 8, Start: ir.C(0), Stride: ir.C(1), Length: ir.P("N")},
			{ID: 1, Kind: ChanOut, ElemBytes: 8, Peer: PeerRef{Accel: 1, Access: 0}},
		},
		Program: prog0,
		Trip:    TripSpec{Kind: TripCounted, Count: ir.P("N")},
	}
	a1 := &AccelDef{
		ID: 1, Name: "A1", Objects: []string{"Y"}, AnchorObj: "Y", Place: PlaceL3,
		Accesses: []AccessDecl{
			{ID: 0, Kind: ChanIn, ElemBytes: 8, Peer: PeerRef{Accel: 0, Access: 1}},
			{ID: 1, Kind: StreamOut, Obj: "Y", ElemBytes: 8, Start: ir.C(0), Stride: ir.C(1), Length: ir.P("N")},
		},
		Program: prog1,
		Trip:    TripSpec{Kind: TripCounted, Count: ir.P("N")},
	}
	return &Region{Name: "pipe", Class: ClassParallelizable, Accels: []*AccelDef{a0, a1}}
}

func TestRegionValidateAccepts(t *testing.T) {
	if err := pipelineRegion().Validate(); err != nil {
		t.Fatalf("valid region rejected: %v", err)
	}
}

func TestRegionValidateRejects(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(r *Region)
	}{
		{"duplicate accel id", func(r *Region) { r.Accels[1].ID = 0 }},
		{"non-dense access ids", func(r *Region) { r.Accels[0].Accesses[1].ID = 5 }},
		{"zero elem bytes", func(r *Region) { r.Accels[0].Accesses[0].ElemBytes = 0 }},
		{"stream without object", func(r *Region) { r.Accels[0].Accesses[0].Obj = "" }},
		{"stream missing config", func(r *Region) { r.Accels[0].Accesses[0].Stride = nil }},
		{"unknown peer accel", func(r *Region) { r.Accels[0].Accesses[1].Peer.Accel = 9 }},
		{"unknown peer access", func(r *Region) { r.Accels[0].Accesses[1].Peer.Access = 9 }},
		{"peer not pointing back", func(r *Region) { r.Accels[1].Accesses[0].Peer = PeerRef{Accel: 1, Access: 0} }},
		{"counted trip without count", func(r *Region) { r.Accels[0].Trip.Count = nil }},
		{"while-input on output access", func(r *Region) {
			r.Accels[0].Trip = TripSpec{Kind: TripWhileInput, InputAccess: 1}
		}},
		{"bad program access", func(r *Region) { r.Accels[0].Program[0].Access = 7 }},
		{"scalar bind register range", func(r *Region) {
			r.Accels[0].ScalarInit = []ScalarBind{{Reg: 99, Expr: ir.C(0)}}
		}},
	}
	for _, m := range mutations {
		r := pipelineRegion()
		m.mut(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestAccelAccessLookup(t *testing.T) {
	a := pipelineRegion().Accels[0]
	if _, ok := a.Access(0); !ok {
		t.Fatal("access 0 missing")
	}
	if _, ok := a.Access(5); ok {
		t.Fatal("access 5 found")
	}
	if _, ok := a.Access(-1); ok {
		t.Fatal("access -1 found")
	}
}

func TestPlanBuffersChannelsGetOwnBuffers(t *testing.T) {
	r := pipelineRegion()
	a0 := r.Accels[0]
	streams := []EvaledStream{0: {Start: 0, Stride: 1, Length: 64}}
	plan, err := PlanBuffers(a0, streams, 512, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Buffers) != 2 {
		t.Fatalf("buffers = %d, want 2", len(plan.Buffers))
	}
	if plan.ByAccess[0] == plan.ByAccess[1] {
		t.Fatal("stream and channel share a buffer")
	}
}

// combiningAccel builds an accel with three same-object stream reads at
// small constant distances (a stencil) plus one far away.
func combiningAccel() *AccelDef {
	accs := []AccessDecl{}
	for i := 0; i < 4; i++ {
		accs = append(accs, AccessDecl{
			ID: i, Kind: StreamIn, Obj: "A", ElemBytes: 8,
			Start: ir.C(float64(i)), Stride: ir.C(1), Length: ir.C(64),
		})
	}
	return &AccelDef{
		ID: 0, Name: "stencil", Objects: []string{"A"}, AnchorObj: "A",
		Accesses: accs,
		Trip:     TripSpec{Kind: TripCounted, Count: ir.C(64)},
	}
}

func TestPlanBuffersCombinesNearbyAccessors(t *testing.T) {
	a := combiningAccel()
	streams := []EvaledStream{
		0: {Start: 0, Stride: 1}, 1: {Start: 1, Stride: 1},
		2: {Start: 2, Stride: 1}, 3: {Start: 10000, Stride: 1},
	}
	plan, err := PlanBuffers(a, streams, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Buffers) != 2 {
		t.Fatalf("buffers = %d, want 2 (combined stencil + far accessor): %+v", len(plan.Buffers), plan.Buffers)
	}
	if plan.ByAccess[0] != plan.ByAccess[1] || plan.ByAccess[1] != plan.ByAccess[2] {
		t.Fatal("stencil accessors not combined")
	}
	if plan.ByAccess[3] == plan.ByAccess[0] {
		t.Fatal("far accessor combined")
	}
}

func TestPlanBuffersCombiningDisabled(t *testing.T) {
	a := combiningAccel()
	streams := []EvaledStream{
		0: {Start: 0, Stride: 1}, 1: {Start: 1, Stride: 1},
		2: {Start: 2, Stride: 1}, 3: {Start: 3, Stride: 1},
	}
	plan, err := PlanBuffers(a, streams, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Buffers) != 4 {
		t.Fatalf("buffers = %d, want 4 without combining", len(plan.Buffers))
	}
}

func TestPlanBuffersDifferentStridesNotCombined(t *testing.T) {
	a := combiningAccel()
	streams := []EvaledStream{
		0: {Start: 0, Stride: 1}, 1: {Start: 1, Stride: 2},
		2: {Start: 2, Stride: 1}, 3: {Start: 3, Stride: 2},
	}
	plan, err := PlanBuffers(a, streams, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	// stride-1 pair combined, stride-2 pair combined: 2 buffers.
	if len(plan.Buffers) != 2 {
		t.Fatalf("buffers = %d, want 2", len(plan.Buffers))
	}
	if plan.ByAccess[0] != plan.ByAccess[2] || plan.ByAccess[1] != plan.ByAccess[3] {
		t.Fatal("stride grouping wrong")
	}
	if plan.ByAccess[0] == plan.ByAccess[1] {
		t.Fatal("different strides combined")
	}
}

func TestPlanBuffersMissingStreamConfig(t *testing.T) {
	a := combiningAccel()
	if _, err := PlanBuffers(a, nil, 64, true); err == nil {
		t.Fatal("missing config accepted")
	}
}

func TestAllocationTable(t *testing.T) {
	var tab AllocationTable
	if tab.AvgBuffers() != 0 {
		t.Fatal("empty table avg")
	}
	tab.RecordLaunch(&BufferPlan{Buffers: make([]BufferAlloc, 3)})
	tab.RecordLaunch(&BufferPlan{Buffers: make([]BufferAlloc, 1)})
	if tab.AvgBuffers() != 2 || tab.Launches() != 2 {
		t.Fatalf("avg = %g launches = %d", tab.AvgBuffers(), tab.Launches())
	}
}

func TestEnumStrings(t *testing.T) {
	if StreamIn.String() != "stream_in" || ChanOut.String() != "chan_out" {
		t.Fatal("access kind strings")
	}
	if PlaceL3.String() != "L3" || PlaceHost.String() != "host" {
		t.Fatal("placement strings")
	}
	if ClassParallelizable.String() != "parallelizable" || ClassNotOffloaded.String() != "not-offloaded" {
		t.Fatal("class strings")
	}
}
