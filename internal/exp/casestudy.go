package exp

import (
	"fmt"

	"distda/internal/compiler"
	"distda/internal/core"
	"distda/internal/ir"
	"distda/internal/microcode"
	"distda/internal/report"
	"distda/internal/sim"
	"distda/internal/workloads"
)

// fig12aCaseStudies is the §VI-D control-intensive offload study on spmv
// and nw under three Dist-DA schedules, each against OoO:
//
//   - Dist-DA-B: the compiler-automated blocked offload — one launch per
//     innermost loop instance with the host synchronizing on every
//     reduction (epilogue folding off). Short rows do not amortize the
//     offload (the paper's 0.44x for spmv).
//   - Dist-DA-BN: the blocked loop nest with localized control — the
//     epilogue store executes on the accelerator, removing the per-row
//     host synchronization (1.22x).
//   - Dist-DA-BNS: the user-identified schedule — a single whole-nest
//     offload in which a bounds-producer partition cp_produces the inner
//     loop bounds consumed by the compute partition (Fig. 5a), pipelining
//     across rows (1.95x).
func fig12aCaseStudies(scale workloads.Scale) figure {
	spmv, nw := workloads.SpMV(scale), workloads.NW(scale)
	blocked := sim.MustConfig(sim.DistDAIO, sim.WithoutEpilogueFold())
	cells := []Cell{
		{W: spmv, Scale: scale, Cfg: sim.OoO()},
		// B: naive per-row offload, host-side epilogue.
		{W: spmv, Scale: scale, Cfg: blocked},
		// BN: user-identified blocked loop nest — the whole nest is one
		// offload with the inner-loop bounds fetched by the accelerator
		// itself.
		{W: spmv, Scale: scale, Cfg: sim.DistDAIO(), Annotate: AnnotateSpMVBN(spmv)},
		// BNS: whole-nest offload with produced bounds and an explicit
		// cp_fill_ra block schedule for x.
		{W: spmv, Scale: scale, Cfg: sim.DistDAIO(), Annotate: AnnotateSpMVBNS(spmv)},
		{W: nw, Scale: scale, Cfg: sim.OoO()},
		{W: nw, Scale: scale, Cfg: blocked},
		// BN: the blocked loop nest with localized epilogue control (the
		// automated stream mapping with forwarding — see AnnotateNWNest for
		// the hand-written cp_read/cp_write alternative, which this model
		// shows losing to stream specialization).
		{W: nw, Scale: scale, Cfg: sim.DistDAIO()},
		// BNS: block scheduling on top — cp_fill_ra-style transfers hide
		// the residual random-access latency.
		{W: nw, Scale: scale, Cfg: sim.MustConfig(sim.DistDAIO, sim.WithSWPrefetch(true))},
	}
	return figure{cells: cells, render: func(res []*sim.Result) *report.Table {
		t := &report.Table{
			Title:   "Fig. 12a: control-intensive offloads (speedup vs OoO)",
			Columns: []string{"benchmark", "Dist-DA-B", "Dist-DA-BN", "Dist-DA-BNS"},
		}
		for i, name := range []string{"spmv", "nw"} {
			base := res[4*i]
			row := []string{name}
			for _, r := range res[4*i+1 : 4*i+4] {
				row = append(row, vs(r, base, (*sim.Result).SpeedupVs))
			}
			t.AddRow(row...)
		}
		t.AddNote("paper spmv: 0.44x / 1.22x / 1.95x; BNS decouples loop-nest control via produced bounds")
		return t
	}}
}

// AnnotateSpMVBN offloads the whole spmv loop nest as a single accelerator
// (the §VI-D Dist-DA-BN configuration): per nonzero it streams val/colidx,
// gathers x, and at each row boundary writes y and fetches the next bound
// itself with cp_read — localizing the nested loop control without the
// bounds-producer pipeline.
func AnnotateSpMVBN(w *workloads.Workload) func(*compiler.Compiled) error {
	return annotateSpMVNest(false)
}

// AnnotateSpMVBNS replaces the automated per-row mapping with the
// user-specified whole-nest schedule (Dist-DA-BNS): accelerator A0 streams
// the row pointers and produces inner-loop bounds (Fig. 5a) consumed by the
// compute pipeline, and x is block-fetched into the local buffer with
// cp_fill_ra — predicated channel ops, Table V's "U" rows.
func AnnotateSpMVBNS(w *workloads.Workload) func(*compiler.Compiled) error {
	return annotateSpMVNest(true)
}

func annotateSpMVNest(producedBounds bool) func(*compiler.Compiled) error {
	return func(c *compiler.Compiled) error {
		loops := ir.Loops(c.Kernel.Body)
		if len(loops) != 2 {
			return fmt.Errorf("casestudy: spmv shape changed (%d loops)", len(loops))
		}
		outer, inner := loops[0], loops[1]
		op := func(code microcode.Code) microcode.Op { return microcode.NewOp(code) }
		nnz := ir.Ld("rowptr", ir.P("R"))

		var accels []*core.AccelDef
		if producedBounds {
			// A0: bounds producer anchored at rowptr.
			cons := op(microcode.Consume)
			cons.Dst, cons.Access = 1, 0
			mov := op(microcode.Mov)
			mov.Dst, mov.A = 2, 1
			prod := op(microcode.Produce)
			prod.A, prod.Access = 2, 1
			accels = append(accels, &core.AccelDef{
				ID: 0, Name: "bounds", Objects: []string{"rowptr"}, AnchorObj: "rowptr", Place: core.PlaceL3,
				Accesses: []core.AccessDecl{
					{ID: 0, Kind: core.StreamIn, Obj: "rowptr", ElemBytes: 8,
						Start: ir.C(2), Stride: ir.C(1), Length: ir.SubE(ir.P("R"), ir.C(1))},
					{ID: 1, Kind: core.ChanOut, ElemBytes: 8, Peer: core.PeerRef{Accel: 1, Access: 2}},
				},
				Program: microcode.Program{cons, mov, prod},
				Trip:    core.TripSpec{Kind: core.TripCounted, Count: ir.SubE(ir.P("R"), ir.C(1))},
			})
		}

		// A1: per-nonzero pipeline with a predicated row epilogue.
		// Registers: 1=val 2=colidx 3=x 4=prod 5=acc 6=e+1 7=rowEnd
		// 8=bound 9=nnz 10=more 11=advance 12=row counter
		var prog microcode.Program
		add := func(o microcode.Op) { prog = append(prog, o) }
		o := op(microcode.Consume)
		o.Dst, o.Access = 1, 0
		add(o) // val
		o = op(microcode.Consume)
		o.Dst, o.Access = 2, 1
		add(o) // colidx
		o = op(microcode.LoadObj)
		o.Dst, o.A, o.Obj = 3, 2, "x"
		add(o)
		o = op(microcode.ALU)
		o.Dst, o.A, o.B, o.Bin = 4, 1, 3, ir.Mul
		add(o)
		o = op(microcode.ALU)
		o.Dst, o.A, o.B, o.Bin = 5, 5, 4, ir.Add
		add(o) // acc +=
		o = op(microcode.Iter)
		o.Dst = 6
		add(o)
		o = op(microcode.ALUI)
		o.Dst, o.A, o.Bin, o.Imm = 6, 6, ir.Add, 1
		add(o) // e+1
		o = op(microcode.ALU)
		o.Dst, o.A, o.B, o.Bin = 7, 6, 8, ir.Eq
		add(o) // rowEnd
		o = op(microcode.Produce)
		o.A, o.Access, o.Pred = 5, boundIf(producedBounds, 3, 2), 7
		add(o) // y <- acc
		o = op(microcode.MovI)
		o.Dst, o.Imm, o.Pred = 5, 0, 7
		add(o) // acc = 0
		o = op(microcode.ALU)
		o.Dst, o.A, o.B, o.Bin = 10, 6, 9, ir.Ne
		add(o) // not the last edge
		o = op(microcode.ALU)
		o.Dst, o.A, o.B, o.Bin = 11, 7, 10, ir.And
		add(o) // advance to next row?
		if producedBounds {
			o = op(microcode.Consume)
			o.Dst, o.Access, o.Pred = 8, 2, 11
			add(o) // next bound from A0
		} else {
			o = op(microcode.ALUI)
			o.Dst, o.A, o.Bin, o.Imm, o.Pred = 12, 12, ir.Add, 1, 11
			add(o) // row++
			o = op(microcode.LoadObj)
			o.Dst, o.A, o.Obj, o.Pred = 8, 12, "rowptr", 11
			add(o) // cp_read the next bound
		}

		accesses := []core.AccessDecl{
			{ID: 0, Kind: core.StreamIn, Obj: "val", ElemBytes: 8,
				Start: ir.C(0), Stride: ir.C(1), Length: nnz},
			{ID: 1, Kind: core.StreamIn, Obj: "colidx", ElemBytes: 8,
				Start: ir.C(0), Stride: ir.C(1), Length: nnz},
		}
		if producedBounds {
			accesses = append(accesses,
				core.AccessDecl{ID: 2, Kind: core.ChanIn, ElemBytes: 8, Peer: core.PeerRef{Accel: 0, Access: 1}},
				core.AccessDecl{ID: 3, Kind: core.StreamOut, Obj: "y", ElemBytes: 8,
					Start: ir.C(0), Stride: ir.C(1), Length: ir.P("R")})
		} else {
			accesses = append(accesses,
				core.AccessDecl{ID: 2, Kind: core.StreamOut, Obj: "y", ElemBytes: 8,
					Start: ir.C(0), Stride: ir.C(1), Length: ir.P("R")})
		}
		objs := []string{"colidx", "val", "x", "y"}
		if !producedBounds {
			objs = append(objs, "rowptr")
		}
		// BN anchors at the gathered x vector (its random probes stay
		// local; the streams arrive line-granular over links); BNS anchors
		// at val since x is prefilled into the local buffer.
		anchor := "x"
		if producedBounds {
			anchor = "val"
		}
		a1 := &core.AccelDef{
			ID: boundIf(producedBounds, 1, 0), Name: "dotpipe", Objects: objs,
			AnchorObj: anchor, Place: core.PlaceL3,
			Accesses: accesses,
			Program:  prog,
			Trip:     core.TripSpec{Kind: core.TripCounted, Count: nnz},
			ScalarInit: []core.ScalarBind{
				{Reg: 5, Name: "acc0", Expr: ir.C(0)},
				{Reg: 8, Name: "bound0", Expr: ir.Ld("rowptr", ir.C(1))},
				{Reg: 9, Name: "nnz", Expr: nnz},
				{Reg: 12, Name: "row0", Expr: ir.C(1)},
			},
		}
		if producedBounds {
			a1.Prefill = []string{"x"} // cp_fill_ra the gather block
		}
		accels = append(accels, a1)
		// Fix peer accel id when A1 is the only accel.
		if !producedBounds {
			// no channels to fix
		}
		region := &core.Region{
			Name:   "spmv.nest",
			Loop:   outer,
			Class:  core.ClassPipelinable,
			Accels: accels,
		}
		if err := region.Validate(); err != nil {
			return fmt.Errorf("casestudy: %w", err)
		}
		c.ByLoop[outer] = region
		delete(c.ByLoop, inner)
		return nil
	}
}

// boundIf selects between two ints.
func boundIf(cond bool, a, b int) int {
	if cond {
		return a
	}
	return b
}

// AnnotateNWNest offloads the whole Needleman-Wunsch matrix as a single
// accelerator (the §VI-D nw annotated configurations): per cell it
// recovers (i, j) from the flat iteration index, reads the previous row
// with cp_read, carries the left neighbor in a register (reloading it at
// row starts under a predicate), and writes the cell with cp_write. With
// prefill, the similarity matrix is block-fetched via cp_fill_ra (the BNS
// schedule).
func AnnotateNWNest(prefill bool) func(*compiler.Compiled) error {
	return func(c *compiler.Compiled) error {
		loops := ir.Loops(c.Kernel.Body)
		if len(loops) != 2 {
			return fmt.Errorf("casestudy: nw shape changed (%d loops)", len(loops))
		}
		outer, inner := loops[0], loops[1]
		op := func(code microcode.Code) microcode.Op { return microcode.NewOp(code) }

		// Registers: 1=N 2=W(=N-1) 3=e 4=i 5=j 6=idx 7=up 8=diag 9=sim
		// 10=left 11=penalty 12=m 13=rowstart 14=tmp
		var prog microcode.Program
		add := func(o microcode.Op) { prog = append(prog, o) }
		o := op(microcode.Iter)
		o.Dst = 3
		add(o)
		// i = floor(e / W) + 1 ; j = e mod W + 1
		o = op(microcode.ALU)
		o.Dst, o.A, o.B, o.Bin = 4, 3, 2, ir.Div
		add(o)
		o = op(microcode.Un)
		o.Dst, o.A, o.UnOp = 4, 4, ir.Floor
		add(o)
		o = op(microcode.ALUI)
		o.Dst, o.A, o.Bin, o.Imm = 4, 4, ir.Add, 1
		add(o)
		o = op(microcode.ALU)
		o.Dst, o.A, o.B, o.Bin = 5, 3, 2, ir.Mod
		add(o)
		o = op(microcode.ALUI)
		o.Dst, o.A, o.Bin, o.Imm = 5, 5, ir.Add, 1
		add(o)
		// idx = i*N + j
		o = op(microcode.ALU)
		o.Dst, o.A, o.B, o.Bin = 6, 4, 1, ir.Mul
		add(o)
		o = op(microcode.ALU)
		o.Dst, o.A, o.B, o.Bin = 6, 6, 5, ir.Add
		add(o)
		// rowstart = (j == 1): reload left = M[idx-1] (the boundary column).
		o = op(microcode.ALUI)
		o.Dst, o.A, o.Bin, o.Imm = 13, 5, ir.Eq, 1
		add(o)
		o = op(microcode.ALUI)
		o.Dst, o.A, o.Bin, o.Imm = 14, 6, ir.Add, -1
		add(o)
		o = op(microcode.LoadObj)
		o.Dst, o.A, o.Obj, o.Pred = 10, 14, "M", 13
		add(o)
		// up = M[idx-N]; diag = up-row left = M[idx-N-1].
		o = op(microcode.ALU)
		o.Dst, o.A, o.B, o.Bin = 14, 6, 1, ir.Sub
		add(o)
		o = op(microcode.LoadObj)
		o.Dst, o.A, o.Obj = 7, 14, "M"
		add(o)
		o = op(microcode.ALUI)
		o.Dst, o.A, o.Bin, o.Imm = 14, 14, ir.Add, -1
		add(o)
		o = op(microcode.LoadObj)
		o.Dst, o.A, o.Obj = 8, 14, "M"
		add(o)
		// sim = S[idx]
		o = op(microcode.LoadObj)
		o.Dst, o.A, o.Obj = 9, 6, "S"
		add(o)
		// m = max(diag+sim, max(up-P, left-P))
		o = op(microcode.ALU)
		o.Dst, o.A, o.B, o.Bin = 8, 8, 9, ir.Add
		add(o)
		o = op(microcode.ALU)
		o.Dst, o.A, o.B, o.Bin = 7, 7, 11, ir.Sub
		add(o)
		o = op(microcode.ALU)
		o.Dst, o.A, o.B, o.Bin = 10, 10, 11, ir.Sub
		add(o)
		o = op(microcode.ALU)
		o.Dst, o.A, o.B, o.Bin = 12, 7, 10, ir.Max
		add(o)
		o = op(microcode.ALU)
		o.Dst, o.A, o.B, o.Bin = 12, 12, 8, ir.Max
		add(o)
		// M[idx] = m; left = m (carried into the next cell of this row).
		o = op(microcode.StoreObj)
		o.A, o.B, o.Obj = 6, 12, "M"
		add(o)
		o = op(microcode.Mov)
		o.Dst, o.A = 10, 12
		add(o)

		trips := ir.MulE(ir.SubE(ir.P("N"), ir.C(1)), ir.SubE(ir.P("N"), ir.C(1)))
		a1 := &core.AccelDef{
			ID: 0, Name: "nwnest", Objects: []string{"M", "S"},
			AnchorObj: "M", Place: core.PlaceL3,
			Program: prog,
			Trip:    core.TripSpec{Kind: core.TripCounted, Count: trips},
			ScalarInit: []core.ScalarBind{
				{Reg: 1, Name: "N", Expr: ir.P("N")},
				{Reg: 2, Name: "W", Expr: ir.SubE(ir.P("N"), ir.C(1))},
				{Reg: 10, Name: "left0", Expr: ir.Ld("M", ir.P("N"))}, // M[1*N+0]
				{Reg: 11, Name: "penalty", Expr: ir.P("P")},
			},
		}
		if prefill {
			a1.Prefill = []string{"S"} // cp_fill_ra the similarity block
		}
		region := &core.Region{
			Name:   "nw.nest",
			Loop:   outer,
			Class:  core.ClassPipelinable,
			Accels: []*core.AccelDef{a1},
		}
		if err := region.Validate(); err != nil {
			return fmt.Errorf("casestudy: %w", err)
		}
		c.ByLoop[outer] = region
		delete(c.ByLoop, inner)
		return nil
	}
}
