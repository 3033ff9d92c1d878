package compiler

import (
	"fmt"

	"distda/internal/core"
	"distda/internal/dfg"
	"distda/internal/ir"
)

// Mode selects the compute-distribution lowering.
type Mode int

const (
	// ModeDist: distributed computation (Dist-DA) — the partition count is
	// chosen by the §V-A-3 iteration.
	ModeDist Mode = iota
	// ModeMono: monolithic computation (Mono-CA / Mono-DA) — one partition,
	// accesses still specialized.
	ModeMono
)

// Options configure a compilation.
type Options struct {
	Mode Mode
	// MaxPartitions caps the partition iteration (0 = automatic).
	MaxPartitions int
	// NoObjConstraint drops the ≤1-object-per-partition preference
	// (ablation).
	NoObjConstraint bool
	// NoStreamSpecialization lowers affine accesses as random accesses —
	// the multithreading case study skips the stream step (§VI-D).
	NoStreamSpecialization bool
	// NoEpilogueFold keeps post-loop stores on the host (the naive blocked
	// offload of the §VI-D case study, Dist-DA-B).
	NoEpilogueFold bool
}

// Compiled is the result of compiling one kernel.
type Compiled struct {
	Kernel  *ir.Kernel
	Regions []*core.Region
	ByLoop  map[*ir.For]*core.Region
	Infos   []*RegionInfo
}

// RegionInfo carries per-region reporting data (Table VI).
type RegionInfo struct {
	Region *core.Region
	Graph  *dfg.Graph // pre-partitioning DFG
	Insts  int        // total micro-ops across the region's partitions
	Why    string     // reason when not offloaded
}

// Offloaded reports whether the region executes on accelerators.
func (ri *RegionInfo) Offloaded() bool {
	return ri.Region.Class != core.ClassNotOffloaded && len(ri.Region.Accels) > 0
}

// Compile analyzes every innermost loop of k and emits offload regions.
func Compile(k *ir.Kernel, opts Options) (*Compiled, error) {
	if err := ir.Validate(k); err != nil {
		return nil, err
	}
	if opts.Mode == ModeMono {
		opts.MaxPartitions = 1
	}
	out := &Compiled{Kernel: k, ByLoop: map[*ir.For]*core.Region{}}
	for idx, loop := range ir.InnermostLoops(k.Body) {
		name := fmt.Sprintf("%s.r%d", k.Name, idx)
		outer := outerLocals(k.Body, loop)
		var epi *ir.Store
		if !opts.NoEpilogueFold {
			epi = epilogueStore(k.Body, loop)
		}
		reg := analyzeLoop(k, loop, outer, opts.NoStreamSpecialization, epi)
		if reg.class != classNotOffloaded {
			skip := (*ir.Stmt)(nil)
			if reg.folded {
				skip = epilogueStmt(k.Body, loop)
			}
			if why := checkEscapes(k.Body, loop, reg, skip); why != "" {
				reg.class = classNotOffloaded
				reg.why = why
			}
		}
		skipForReads := (*ir.Stmt)(nil)
		if reg.folded {
			skipForReads = epilogueStmt(k.Body, loop)
		}
		readsAfter := localsReadAfter(k.Body, loop, skipForReads)
		cr, err := emitRegion(k, reg, opts, name, readsAfter)
		if err != nil {
			return nil, err
		}
		cr.FoldedEpilogue = reg.folded && cr.Class != core.ClassNotOffloaded && len(cr.Accels) > 0
		info := &RegionInfo{Region: cr, Why: reg.why}
		if cr.Class != core.ClassNotOffloaded {
			info.Graph = buildDFG(reg)
			for _, a := range cr.Accels {
				info.Insts += len(a.Program)
			}
		}
		out.Regions = append(out.Regions, cr)
		out.ByLoop[loop] = cr
		out.Infos = append(out.Infos, info)
	}
	return out, nil
}

// epilogueStore returns the Store statement immediately following the
// target loop in its parent statement list, if any (fold candidate).
func epilogueStore(body []ir.Stmt, target *ir.For) *ir.Store {
	p := epilogueStmt(body, target)
	if p == nil {
		return nil
	}
	if st, ok := (*p).(ir.Store); ok {
		return &st
	}
	return nil
}

// epilogueStmt returns the address of the statement slot immediately after
// the target loop in its parent list, nil if the loop is last.
func epilogueStmt(body []ir.Stmt, target *ir.For) *ir.Stmt {
	var find func(ss []ir.Stmt) *ir.Stmt
	find = func(ss []ir.Stmt) *ir.Stmt {
		for i := range ss {
			switch x := ss[i].(type) {
			case *ir.For:
				if x == target {
					if i+1 < len(ss) {
						return &ss[i+1]
					}
					return nil
				}
				if p := find(x.Body); p != nil {
					return p
				}
			case ir.If:
				if p := find(x.Then); p != nil {
					return p
				}
				if p := find(x.Else); p != nil {
					return p
				}
			}
		}
		return nil
	}
	return find(body)
}

// outerLocals returns the (superset of) locals defined lexically before the
// target loop; the kernel validator already guarantees real definedness.
func outerLocals(body []ir.Stmt, target *ir.For) map[string]bool {
	defs := map[string]bool{}
	found := false
	var walk func([]ir.Stmt)
	walk = func(ss []ir.Stmt) {
		for _, s := range ss {
			if found {
				return
			}
			switch x := s.(type) {
			case ir.Let:
				defs[x.Name] = true
			case ir.If:
				walk(x.Then)
				walk(x.Else)
			case *ir.For:
				if x == target {
					found = true
					return
				}
				walk(x.Body)
			}
		}
	}
	walk(body)
	return defs
}

// checkEscapes rejects regions whose non-carried in-body locals are read
// after the loop (their final values would not reach the host).
func checkEscapes(body []ir.Stmt, target *ir.For, reg *region, skip *ir.Stmt) string {
	assigned := map[string]bool{}
	ir.WalkStmts(target.Body, func(s ir.Stmt) {
		if let, ok := s.(ir.Let); ok {
			assigned[let.Name] = true
		}
	}, nil)
	carried := map[string]bool{}
	for _, c := range reg.carried {
		carried[c.localName] = true
	}
	after := localsReadAfter(body, target, skip)
	for name := range assigned {
		if after[name] && !carried[name] {
			return fmt.Sprintf("local %q assigned in loop is read after it", name)
		}
	}
	return ""
}

// localsReadAfter collects local reads that can observe a value produced by
// the target loop: reads lexically after it, and reads in later iterations
// of enclosing loops — excluding reads inside the target itself, which see
// the same-iteration redefinition.
func localsReadAfter(body []ir.Stmt, target *ir.For, skip *ir.Stmt) map[string]bool {
	reads := map[string]bool{}
	noteExpr := func(e ir.Expr) {
		ir.WalkExpr(e, func(x ir.Expr) {
			if l, ok := x.(ir.Local); ok {
				reads[l.Name] = true
			}
		})
	}
	noteKilled := func(e ir.Expr, killed map[string]bool) {
		ir.WalkExpr(e, func(x ir.Expr) {
			if l, ok := x.(ir.Local); ok && !killed[l.Name] {
				reads[l.Name] = true
			}
		})
	}
	// collect gathers reads in ss that can observe the target's values:
	// a Let kills subsequent reads of its local on that path; the target
	// subtree itself is skipped (its reads see same-iteration defs).
	var collect func(ss []ir.Stmt, killed map[string]bool)
	collect = func(ss []ir.Stmt, killed map[string]bool) {
		for i := range ss {
			if skip != nil && &ss[i] == skip {
				continue // the folded epilogue store never executes on the host
			}
			s := ss[i]
			switch x := s.(type) {
			case ir.Let:
				noteKilled(x.E, killed)
				killed[x.Name] = true
			case ir.Store:
				noteKilled(x.Idx, killed)
				noteKilled(x.Val, killed)
			case ir.If:
				noteKilled(x.Cond, killed)
				collect(x.Then, cloneKilled(killed))
				collect(x.Else, cloneKilled(killed))
			case *ir.For:
				if x == target {
					continue
				}
				noteKilled(x.Lo, killed)
				noteKilled(x.Hi, killed)
				noteKilled(x.Step, killed)
				collect(x.Body, cloneKilled(killed))
			}
		}
	}
	var walk func(ss []ir.Stmt) bool
	walk = func(ss []ir.Stmt) bool {
		for i, s := range ss {
			switch x := s.(type) {
			case *ir.For:
				if x == target {
					collect(ss[i+1:], map[string]bool{})
					return true
				}
				if walk(x.Body) {
					// Later iterations of the enclosing loop re-read its
					// whole body (minus the target) and its bounds.
					collect(x.Body, map[string]bool{})
					noteExpr(x.Lo)
					noteExpr(x.Hi)
					collect(ss[i+1:], map[string]bool{})
					return true
				}
			case ir.If:
				if walk(x.Then) || walk(x.Else) {
					collect(ss[i+1:], map[string]bool{})
					return true
				}
			}
		}
		return false
	}
	walk(body)
	return reads
}

func cloneKilled(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// buildDFG renders the value graph as the paper's three-node-kind DFG for
// reporting and inspection (Fig. 3-2, Table VI dims).
func buildDFG(reg *region) *dfg.Graph {
	g := dfg.New()
	nodeID := map[int]int{}
	objNode := map[string]int{}
	obj := func(name string) int {
		if id, ok := objNode[name]; ok {
			return id
		}
		n := g.AddNode(&dfg.Node{Kind: dfg.KindObject, Obj: name, Label: name})
		objNode[name] = n.ID
		return n.ID
	}
	for _, v := range reg.nodes {
		var dn *dfg.Node
		switch v.kind {
		case vLoadStream:
			dn = &dfg.Node{Kind: dfg.KindAccess, Obj: v.obj, Dir: dfg.Read, Pattern: dfg.PatAffine, Affine: v.aff, Label: "ld " + v.obj}
		case vLoadRandom:
			dn = &dfg.Node{Kind: dfg.KindAccess, Obj: v.obj, Dir: dfg.Read, Pattern: dfg.PatIndirect, Label: "ld* " + v.obj}
		case vStoreStream:
			dn = &dfg.Node{Kind: dfg.KindAccess, Obj: v.obj, Dir: dfg.Write, Pattern: dfg.PatAffine, Affine: v.aff, Label: "st " + v.obj}
		case vStoreRandom:
			dn = &dfg.Node{Kind: dfg.KindAccess, Obj: v.obj, Dir: dfg.Write, Pattern: dfg.PatIndirect, Label: "st* " + v.obj}
		case vOp:
			dn = &dfg.Node{Kind: dfg.KindCompute, Class: v.op.Class(), Label: v.op.String()}
		case vUn:
			dn = &dfg.Node{Kind: dfg.KindCompute, Class: v.un.Class(), Label: v.un.String()}
		default:
			dn = &dfg.Node{Kind: dfg.KindCompute, Class: ir.ClassInt, Label: v.kind.String()}
		}
		nodeID[v.id] = g.AddNode(dn).ID
	}
	for _, v := range reg.nodes {
		for _, d := range deps(v) {
			_ = g.AddEdge(dfg.Edge{From: nodeID[d.id], To: nodeID[v.id], Bytes: 8})
		}
		if v.next != nil {
			_ = g.AddEdge(dfg.Edge{From: nodeID[v.next.id], To: nodeID[v.id], Bytes: 8, Recurrence: true})
		}
		switch v.kind {
		case vLoadStream, vLoadRandom:
			_ = g.AddEdge(dfg.Edge{From: obj(v.obj), To: nodeID[v.id], Bytes: 8})
		case vStoreStream, vStoreRandom:
			_ = g.AddEdge(dfg.Edge{From: nodeID[v.id], To: obj(v.obj), Bytes: 8})
		}
	}
	return g
}
