package compiler

import (
	"testing"

	"distda/internal/core"
	"distda/internal/ir"
	"distda/internal/microcode"
)

func vecAdd(n int) *ir.Kernel {
	return &ir.Kernel{
		Name:   "vecadd",
		Params: []string{"N"},
		Objects: []ir.ObjDecl{
			{Name: "A", Len: n, ElemBytes: 8},
			{Name: "B", Len: n, ElemBytes: 8},
			{Name: "C", Len: n, ElemBytes: 8},
		},
		Body: []ir.Stmt{
			ir.Loop("i", ir.C(0), ir.P("N"),
				ir.St("C", ir.V("i"), ir.AddE(ir.Ld("A", ir.V("i")), ir.Ld("B", ir.V("i")))),
			),
		},
	}
}

func compileOK(t *testing.T, k *ir.Kernel, opts Options) *Compiled {
	t.Helper()
	c, err := Compile(k, opts)
	if err != nil {
		t.Fatalf("Compile(%s): %v", k.Name, err)
	}
	return c
}

func onlyRegion(t *testing.T, c *Compiled) *core.Region {
	t.Helper()
	if len(c.Regions) != 1 {
		t.Fatalf("regions = %d, want 1", len(c.Regions))
	}
	return c.Regions[0]
}

func countAccess(r *core.Region, kind core.AccessKind) int {
	n := 0
	for _, a := range r.Accels {
		for _, acc := range a.Accesses {
			if acc.Kind == kind {
				n++
			}
		}
	}
	return n
}

func TestCompileVecAddDist(t *testing.T) {
	c := compileOK(t, vecAdd(4096), Options{Mode: ModeDist})
	r := onlyRegion(t, c)
	if r.Class != core.ClassParallelizable {
		t.Fatalf("class = %v", r.Class)
	}
	if len(r.Accels) == 0 {
		t.Fatal("no accels")
	}
	if got := countAccess(r, core.StreamIn); got != 2 {
		t.Fatalf("stream-ins = %d, want 2", got)
	}
	if got := countAccess(r, core.StreamOut); got != 1 {
		t.Fatalf("stream-outs = %d, want 1", got)
	}
	// Channels are symmetric.
	if countAccess(r, core.ChanIn) != countAccess(r, core.ChanOut) {
		t.Fatal("chan in/out mismatch")
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCompileVecAddMonoIsSinglePartition(t *testing.T) {
	c := compileOK(t, vecAdd(4096), Options{Mode: ModeMono})
	r := onlyRegion(t, c)
	if len(r.Accels) != 1 {
		t.Fatalf("mono accels = %d, want 1", len(r.Accels))
	}
	if countAccess(r, core.ChanIn) != 0 {
		t.Fatal("mono compile has channels")
	}
}

func TestCompileDistPartitionsByObject(t *testing.T) {
	// Each partition should touch at most one memory object for this
	// cleanly separable kernel.
	c := compileOK(t, vecAdd(4096), Options{Mode: ModeDist})
	r := onlyRegion(t, c)
	for _, a := range r.Accels {
		if len(a.Objects) > 1 {
			t.Fatalf("accel %d touches %v (more than one object)", a.ID, a.Objects)
		}
	}
}

func TestCompileReductionExportsCarriedLocal(t *testing.T) {
	k := &ir.Kernel{
		Name:    "reduce",
		Params:  []string{"N"},
		Objects: []ir.ObjDecl{{Name: "A", Len: 4096, ElemBytes: 8}, {Name: "S", Len: 1, ElemBytes: 8}},
		Body: []ir.Stmt{
			ir.Set("sum", ir.C(0)),
			ir.Loop("i", ir.C(0), ir.P("N"),
				ir.Set("sum", ir.AddE(ir.L("sum"), ir.Ld("A", ir.V("i")))),
			),
			ir.St("S", ir.C(0), ir.L("sum")),
		},
	}
	c := compileOK(t, k, Options{Mode: ModeDist})
	r := onlyRegion(t, c)
	if r.Class == core.ClassNotOffloaded {
		t.Fatal("reduction not offloaded")
	}
	// The trailing S[0] = sum store folds into the offload: the accelerator
	// writes it on the last iteration and no cp_load_rf sync remains.
	if !r.FoldedEpilogue {
		t.Fatal("epilogue store not folded")
	}
	for _, a := range r.Accels {
		if len(a.ScalarOut) != 0 {
			t.Fatalf("folded reduction still exports scalars: %+v", a.ScalarOut)
		}
	}
	hasStore := false
	for _, a := range r.Accels {
		for _, op := range a.Program {
			if op.Code == microcode.StoreObj && op.Pred >= 0 {
				hasStore = true
			}
		}
	}
	if !hasStore {
		t.Fatal("no predicated epilogue store in any program")
	}
}

func TestCompileReductionKeepsScalarOutWhenReadTwice(t *testing.T) {
	// sum feeds two post-loop stores: only the first can fold, so the
	// carried local must still be exported for the second.
	k := &ir.Kernel{
		Name:    "reduce2",
		Params:  []string{"N"},
		Objects: []ir.ObjDecl{{Name: "A", Len: 4096, ElemBytes: 8}, {Name: "S", Len: 2, ElemBytes: 8}},
		Body: []ir.Stmt{
			ir.Set("sum", ir.C(0)),
			ir.Loop("i", ir.C(0), ir.P("N"),
				ir.Set("sum", ir.AddE(ir.L("sum"), ir.Ld("A", ir.V("i")))),
			),
			ir.St("S", ir.C(0), ir.L("sum")),
			ir.St("S", ir.C(1), ir.MulE(ir.L("sum"), ir.C(2))),
		},
	}
	c := compileOK(t, k, Options{Mode: ModeDist})
	r := onlyRegion(t, c)
	outs := 0
	for _, a := range r.Accels {
		for _, sb := range a.ScalarOut {
			if sb.Name == "sum" {
				outs++
			}
		}
	}
	if outs != 1 {
		t.Fatalf("sum exported %d times, want 1", outs)
	}
}

func TestCompilePointerChase(t *testing.T) {
	k := &ir.Kernel{
		Name:    "chase",
		Params:  []string{"N"},
		Objects: []ir.ObjDecl{{Name: "next", Len: 8192, ElemBytes: 8}},
		Body: []ir.Stmt{
			ir.Set("p", ir.C(0)),
			ir.Loop("i", ir.C(0), ir.P("N"),
				ir.Set("p", ir.Ld("next", ir.L("p"))),
			),
		},
	}
	c := compileOK(t, k, Options{Mode: ModeDist})
	r := onlyRegion(t, c)
	if r.Class == core.ClassNotOffloaded {
		t.Fatalf("pointer chase not offloaded: %s", c.Infos[0].Why)
	}
	// Exactly one partition: the chase is one recurrence on one object.
	if len(r.Accels) != 1 {
		t.Fatalf("accels = %d, want 1", len(r.Accels))
	}
	hasLoadObj := false
	for _, op := range r.Accels[0].Program {
		if op.Code == microcode.LoadObj {
			hasLoadObj = true
		}
	}
	if !hasLoadObj {
		t.Fatal("no random load in pointer chase program")
	}
}

func TestCompileInPlaceStencilForwards(t *testing.T) {
	// A[i] = A[i-1] + A[i]: distance-1 forward plus distance-0 old value.
	k := &ir.Kernel{
		Name:    "scan",
		Params:  []string{"N"},
		Objects: []ir.ObjDecl{{Name: "A", Len: 4096, ElemBytes: 8}},
		Body: []ir.Stmt{
			ir.Loop("i", ir.C(1), ir.P("N"),
				ir.St("A", ir.V("i"), ir.AddE(ir.Ld("A", ir.SubE(ir.V("i"), ir.C(1))), ir.Ld("A", ir.V("i")))),
			),
		},
	}
	c := compileOK(t, k, Options{Mode: ModeDist})
	r := onlyRegion(t, c)
	if r.Class == core.ClassNotOffloaded {
		t.Fatalf("in-place stencil rejected: %s", c.Infos[0].Why)
	}
	// The forwarded load becomes a register recurrence: at most one
	// stream-in remains (the distance-0 load).
	if got := countAccess(r, core.StreamIn); got != 1 {
		t.Fatalf("stream-ins = %d, want 1 (distance-1 load forwarded)", got)
	}
}

func TestCompileDistanceTwoRejected(t *testing.T) {
	k := &ir.Kernel{
		Name:    "d2",
		Params:  []string{"N"},
		Objects: []ir.ObjDecl{{Name: "A", Len: 4096, ElemBytes: 8}},
		Body: []ir.Stmt{
			ir.Loop("i", ir.C(2), ir.P("N"),
				ir.St("A", ir.V("i"), ir.Ld("A", ir.SubE(ir.V("i"), ir.C(2)))),
			),
		},
	}
	c := compileOK(t, k, Options{Mode: ModeDist})
	if onlyRegion(t, c).Class != core.ClassNotOffloaded {
		t.Fatal("distance-2 in-place accepted")
	}
}

func TestCompileIndirectIsPipelinable(t *testing.T) {
	// hist[idx[i]] += 1: random read+write.
	k := &ir.Kernel{
		Name:    "hist",
		Params:  []string{"N"},
		Objects: []ir.ObjDecl{{Name: "idx", Len: 4096, ElemBytes: 8}, {Name: "hist", Len: 4096, ElemBytes: 8}},
		Body: []ir.Stmt{
			ir.Loop("i", ir.C(0), ir.P("N"),
				ir.Set("x", ir.Ld("idx", ir.V("i"))),
				ir.St("hist", ir.L("x"), ir.AddE(ir.Ld("hist", ir.L("x")), ir.C(1))),
			),
		},
	}
	c := compileOK(t, k, Options{Mode: ModeDist})
	r := onlyRegion(t, c)
	if r.Class != core.ClassPipelinable {
		t.Fatalf("class = %v, want pipelinable", r.Class)
	}
}

func TestCompilePredicatedStoreBecomesRandom(t *testing.T) {
	k := &ir.Kernel{
		Name:    "filter",
		Params:  []string{"N"},
		Objects: []ir.ObjDecl{{Name: "A", Len: 4096, ElemBytes: 8}, {Name: "B", Len: 4096, ElemBytes: 8}},
		Body: []ir.Stmt{
			ir.Loop("i", ir.C(0), ir.P("N"),
				ir.Cond(ir.GtE(ir.Ld("A", ir.V("i")), ir.C(0)),
					[]ir.Stmt{ir.St("B", ir.V("i"), ir.C(1))}, nil),
			),
		},
	}
	c := compileOK(t, k, Options{Mode: ModeDist})
	r := onlyRegion(t, c)
	if r.Class != core.ClassPipelinable {
		t.Fatalf("class = %v, want pipelinable (predicated store)", r.Class)
	}
	pred := false
	for _, a := range r.Accels {
		for _, op := range a.Program {
			if op.Code == microcode.StoreObj && op.Pred >= 0 {
				pred = true
			}
		}
	}
	if !pred {
		t.Fatal("no predicated random store emitted")
	}
}

func TestCompileNonUnitStepNotOffloaded(t *testing.T) {
	k := vecAdd(4096)
	k.Body[0].(*ir.For).Step = ir.C(2)
	c := compileOK(t, k, Options{Mode: ModeDist})
	if onlyRegion(t, c).Class != core.ClassNotOffloaded {
		t.Fatal("non-unit step offloaded")
	}
}

func TestCompileEscapingLocalNotOffloaded(t *testing.T) {
	k := &ir.Kernel{
		Name:    "escape",
		Params:  []string{"N"},
		Objects: []ir.ObjDecl{{Name: "A", Len: 4096, ElemBytes: 8}, {Name: "S", Len: 1, ElemBytes: 8}},
		Body: []ir.Stmt{
			ir.Loop("i", ir.C(0), ir.P("N"),
				ir.Set("last", ir.Ld("A", ir.V("i"))), // not carried, read after
			),
			ir.Set("y", ir.L("last")), // non-store epilogue: unfoldable
			ir.St("S", ir.C(0), ir.L("y")),
		},
	}
	c := compileOK(t, k, Options{Mode: ModeDist})
	if onlyRegion(t, c).Class != core.ClassNotOffloaded {
		t.Fatal("escaping local offloaded")
	}
}

func TestCompileEscapingLocalFoldsWhenStoredDirectly(t *testing.T) {
	// The same escape as a direct store is legal: it folds into the offload.
	k := &ir.Kernel{
		Name:    "escape-fold",
		Params:  []string{"N"},
		Objects: []ir.ObjDecl{{Name: "A", Len: 4096, ElemBytes: 8}, {Name: "S", Len: 1, ElemBytes: 8}},
		Body: []ir.Stmt{
			ir.Loop("i", ir.C(0), ir.P("N"),
				ir.Set("last", ir.Ld("A", ir.V("i"))),
			),
			ir.St("S", ir.C(0), ir.L("last")),
		},
	}
	c := compileOK(t, k, Options{Mode: ModeDist})
	r := onlyRegion(t, c)
	if r.Class == core.ClassNotOffloaded || !r.FoldedEpilogue {
		t.Fatalf("direct-store escape did not fold (class %v, folded %v)", r.Class, r.FoldedEpilogue)
	}
}

func TestCompileOuterLoopConfigExprs(t *testing.T) {
	// Row-major traversal: inner loop streams row i of A into B.
	k := &ir.Kernel{
		Name:    "rows",
		Params:  []string{"N", "W"},
		Objects: []ir.ObjDecl{{Name: "A", Len: 64 * 64, ElemBytes: 8}, {Name: "B", Len: 64 * 64, ElemBytes: 8}},
		Body: []ir.Stmt{
			ir.Loop("i", ir.C(0), ir.P("N"),
				ir.Loop("j", ir.C(0), ir.P("W"),
					ir.St("B", ir.Idx2(ir.V("i"), ir.P("W"), ir.V("j")),
						ir.MulE(ir.Ld("A", ir.Idx2(ir.V("i"), ir.P("W"), ir.V("j"))), ir.C(2))),
				),
			),
		},
	}
	c := compileOK(t, k, Options{Mode: ModeDist})
	r := onlyRegion(t, c)
	if r.Class == core.ClassNotOffloaded {
		t.Fatal("row traversal rejected")
	}
	// The stream start must reference the outer IV i: evaluate it at i=3.
	var start ir.Expr
	for _, a := range r.Accels {
		for _, acc := range a.Accesses {
			if acc.Kind == core.StreamIn && acc.Obj == "A" {
				start = acc.Start
			}
		}
	}
	if start == nil {
		t.Fatal("no stream-in on A")
	}
	v, err := ir.EvalScalar(start, map[string]float64{"N": 64, "W": 64}, map[string]float64{"i": 3})
	if err != nil {
		t.Fatalf("start eval: %v", err)
	}
	if v != 3*64 {
		t.Fatalf("start(i=3) = %g, want 192", v)
	}
}

func TestCompileInfosReportInsts(t *testing.T) {
	c := compileOK(t, vecAdd(4096), Options{Mode: ModeDist})
	info := c.Infos[0]
	if !info.Offloaded() {
		t.Fatal("not offloaded")
	}
	if info.Insts <= 0 {
		t.Fatal("no instruction count")
	}
	if info.Graph == nil {
		t.Fatal("no DFG")
	}
	w, h, err := info.Graph.Dims()
	if err != nil || w <= 0 || h <= 0 {
		t.Fatalf("dims %dx%d err=%v", w, h, err)
	}
}

func TestCompileProgramsValidate(t *testing.T) {
	kernels := []*ir.Kernel{vecAdd(4096)}
	for _, k := range kernels {
		for _, mode := range []Mode{ModeDist, ModeMono} {
			c := compileOK(t, k, Options{Mode: mode})
			for _, r := range c.Regions {
				for _, a := range r.Accels {
					if err := a.Program.Validate(len(a.Accesses)); err != nil {
						t.Fatalf("%s mode %d accel %d: %v", k.Name, mode, a.ID, err)
					}
				}
			}
		}
	}
}

// TestAnnotatedOwnsItsHostProgram: an annotation re-maps loops on a
// private copy with its own host program, so an artifact shared through
// a cache keeps its own ByLoop and host program, and the copy's host
// program launches the re-mapped loop.
func TestAnnotatedOwnsItsHostProgram(t *testing.T) {
	inner := ir.Loop("j", ir.C(0), ir.C(4), ir.St("B", ir.V("j"), ir.AddE(ir.Ld("A", ir.V("j")), ir.C(1))))
	outer := ir.Loop("i", ir.C(0), ir.P("N"), inner)
	k := &ir.Kernel{
		Name:    "annot",
		Params:  []string{"N"},
		Objects: []ir.ObjDecl{{Name: "A", Len: 4, ElemBytes: 8}, {Name: "B", Len: 4, ElemBytes: 8}},
		Body:    []ir.Stmt{outer},
	}
	shared, err := Compile(k, Options{Mode: ModeDist})
	if err != nil {
		t.Fatal(err)
	}
	host, byLoop := shared.Host, len(shared.ByLoop)
	own, err := shared.Annotated(func(c *Compiled) error {
		c.ByLoop[outer] = c.ByLoop[inner]
		delete(c.ByLoop, inner)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Host != host || len(shared.ByLoop) != byLoop || shared.ByLoop[inner] == nil {
		t.Fatal("annotating the copy changed the shared artifact")
	}
	if own.Host == host || own.Host.Kernel() != k {
		t.Fatal("the annotated copy reuses the shared host program")
	}
	var launched []*ir.For
	hooks := &ir.Hooks{OnLaunch: func(f *ir.For, _ ir.Launch) { launched = append(launched, f) }}
	mem := map[string][]float64{"A": make([]float64, 4), "B": make([]float64, 4)}
	if _, err := own.Host.Run(map[string]float64{"N": 3}, mem, hooks); err != nil {
		t.Fatal(err)
	}
	if len(launched) != 1 || launched[0] != outer {
		t.Fatalf("the annotated host program launched %v, want the outer loop once", launched)
	}
}
