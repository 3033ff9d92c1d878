package ir

import (
	"fmt"
	"math"
)

// This file lowers a validated kernel to a flat register-based bytecode.
// The VM (vm.go) executes it; it is the one kernel executor outside
// tests: the reference run that validates every simulation, Table VI's
// dynamic counts, and the host timing model, which runs a host program
// (NewHostProgram) with hooks installed. The tree-walk interpreter in
// interp_oracle_test.go is the semantic reference it is tested against:
// identical Counts, hook events, error behavior and stored data.
//
// A run executes over one flat frame of float64s:
//
//	frame[0:nSlots]                  parameters, locals and induction variables
//	frame[nSlots:nSlots+len(consts)] the constant pool
//	frame[nSlots+len(consts):]       expression registers
//
// Name resolution happens at compile time, and every operand is a frame
// index, so a constant, parameter, induction variable or definitely
// assigned local is read in place: the leaf emits no op. Registers hold
// the values of inner expressions; their count is the maximum expression
// depth, computed during compilation.
//
// Counting is per block, not per op. A block is the code that runs
// exactly as often as one region of the kernel: the top level, one loop's
// body or one If arm, each minus the blocks nested in it. NewProgram
// tallies every block's ops, loads and stores; the VM only counts how
// often each block is entered, and Run multiplies out.

// OpCode enumerates bytecode operations. The encoding is part of the
// serialized program image; changing it requires bumping the artifact
// store's program format version.
type OpCode uint8

const (
	// OpInvalid guards the zero value; executing it is a bug.
	OpInvalid     OpCode = iota
	OpSlotChecked        // frame[Dst] = frame[A], failing when local A was never assigned
	OpMove               // frame[Dst] = frame[A]; marks Dst assigned
	OpLoad               // frame[Dst] = obj Aux [int(frame[A])], bounds-checked
	OpStoreIdx           // bounds-check int(frame[A]) against obj Aux (before the value evaluates)
	OpStore              // obj Aux [int(frame[A])] = frame[B], bounds-checked
	OpBin                // frame[Dst] = BinOp(Aux) applied to frame[A], frame[B]; C is the OpClass
	OpAdd                // OpBin with Aux Add: most arithmetic skips the dispatch on Aux
	OpSub                // OpBin with Aux Sub
	OpMul                // OpBin with Aux Mul
	OpUn                 // frame[Dst] = UnOp(Aux) applied to frame[A]; C is the OpClass
	OpSel                // frame[Dst] = frame[A] != 0 ? frame[B] : frame[C]
	OpJump               // pc = Dst
	OpJumpIfZero         // if frame[A] == 0 { enter block C; pc = Dst } else { enter block B }
	OpLoopEnter          // loop Aux: fail unless step frame[C] > 0; frame[Dst] = frame[A]; B is the bound
	OpLoopTest           // loop Aux: if frame[A] < frame[B] { iterate } else { pc = Dst }
	OpLoopNext           // loop Aux: frame[A] += frame[C]; if frame[A] < frame[B] { iterate; pc = Dst }
	OpLaunch             // launch site Aux: OnLaunch in place of the offloaded loop

	numOpCodes // not an opcode: one past the last
)

// Op is one bytecode instruction. Fields are exported so a program image
// can be gob-encoded by the artifact store; their meaning depends on Code
// (see the OpCode constants). A loop iterating enters block Aux, the
// loop's body block.
type Op struct {
	Code    OpCode
	Dst     int32
	A, B, C int32
	Aux     int32
}

// Block is the compile-time tally of one block: what it executes each time
// control enters it, and the loop its activity is attributed to.
type Block struct {
	Loop                         int32 // innermost enclosing loop's table index; -1 at top level
	IntOps, ComplexOps, FloatOps int64
	Loads, Stores                int64
}

// Program is a compiled kernel: flat bytecode plus the compile-time
// resolved tables it indexes. A Program is immutable after compilation
// and safe for concurrent Run calls; each Run gets its own frame.
//
// blocks[0:len(loops)] are the loop bodies in loop-table order and
// blocks[len(loops)] is the top level; If arms follow.
type Program struct {
	kernel *Kernel
	loops  []*For // loop table in Loops(kernel.Body) order; loop ops index it
	sites  []site // a host program's launch sites; OpLaunch indexes them
	img    Image
}

// site is one offloaded loop of a host program: its launch-time
// expressions, compiled to fragments over the frame, and the slots of the
// locals the launch assigns.
type site struct {
	loop  *For
	exprs []fragment
	outs  []int32
}

// fragment is code[start:end], which leaves its value at frame[result].
type fragment struct{ start, end, result int32 }

// Offload is what a host program does at an offloaded loop instead of
// running it: one launch (Hooks.OnLaunch).
type Offload struct {
	// Exprs are the launch-time expressions. Each compiles to a fragment
	// that Launch.Eval runs on demand, at the loop's place in the program.
	Exprs []Expr
	// Outs are the locals the launch assigns through Launch.SetOut.
	Outs []string
	// SkipNext drops the statement after the loop when it is a Store: the
	// offload performs it (a folded epilogue).
	SkipNext bool
}

// Kernel returns the kernel this program was compiled from (or bound to,
// after Rebind).
func (p *Program) Kernel() *Kernel { return p.kernel }

// Ops returns the number of bytecode instructions (for tests and stats).
func (p *Program) Ops() int { return len(p.img.Code) }

func (p *Program) String() string {
	return fmt.Sprintf("program(%s: %d ops, %d slots, %d consts, %d regs)",
		p.img.KernelName, len(p.img.Code), p.img.NSlots, len(p.img.Consts), p.img.NRegs)
}

// NewProgram validates k and lowers it to bytecode. The error for an
// invalid kernel is exactly the Validate error.
func NewProgram(k *Kernel) (*Program, error) { return NewHostProgram(k, nil) }

// NewHostProgram is NewProgram with every loop in offloads lowered to a
// launch: the loop, its nested loops and a skipped epilogue emit no code
// (their loop-table entries never iterate). A host program runs only with
// an OnLaunch hook.
func NewHostProgram(k *Kernel, offloads map[*For]Offload) (*Program, error) {
	if err := Validate(k); err != nil {
		return nil, err
	}
	c := &bcCompiler{
		offloads:  offloads,
		paramSlot: map[string]int32{},
		localSlot: map[string]int32{},
		ivSlot:    map[string]int32{},
		objIdx:    map[string]int32{},
		constIdx:  map[uint64]int32{},
		defined:   map[string]bool{},
	}
	for i, name := range k.Params {
		c.paramSlot[name] = int32(i)
		c.slotNames = append(c.slotNames, name)
	}
	c.nSlots = int32(len(k.Params))
	for i, o := range k.Objects {
		c.objIdx[o.Name] = int32(i)
	}
	loops := Loops(k.Body)
	// Size the slot region up front (at most one slot per distinct local,
	// one per loop) so the constant pool and registers can follow it in
	// the frame.
	locals := map[string]bool{}
	var consts []float64
	constant := func(e Expr) {
		switch x := e.(type) {
		case Const:
			if _, seen := c.constIdx[math.Float64bits(x.V)]; !seen {
				c.constIdx[math.Float64bits(x.V)] = int32(len(consts))
				consts = append(consts, x.V)
			}
		case Local:
			locals[x.Name] = true
		}
	}
	WalkStmts(k.Body, func(s Stmt) {
		if l, ok := s.(Let); ok {
			locals[l.Name] = true
		}
	}, constant)
	for _, o := range offloads {
		for _, e := range o.Exprs {
			WalkExpr(e, constant)
		}
		for _, name := range o.Outs {
			locals[name] = true
		}
	}
	slots := c.nSlots + int32(len(locals)+len(loops))
	c.constBase = slots
	c.regBase = slots + int32(len(consts))
	c.blocks = make([]Block, len(loops)+1)
	for i := range loops {
		c.blocks[i].Loop = int32(i)
	}
	c.block, c.loop = int32(len(loops)), -1
	c.blocks[c.block].Loop = -1
	c.stmts(k.Body, 0)
	if c.err != nil {
		return nil, c.err
	}
	if c.nSlots > slots {
		panic(fmt.Sprintf("ir: compile of %q allocated %d slots, sized %d", k.Name, c.nSlots, slots))
	}
	for c.nSlots < slots { // locals and loops only an offload reads
		c.newSlot("")
	}
	return &Program{kernel: k, loops: loops, sites: c.sites, img: Image{
		KernelName: k.Name, Params: append([]string(nil), k.Params...),
		Objects: append([]ObjDecl(nil), k.Objects...), SlotNames: c.slotNames, NLoops: len(loops),
		NSlots: int(c.nSlots), Consts: consts, NRegs: int(c.maxRegs), Blocks: c.blocks, Code: c.code,
	}}, nil
}

// bcCompiler lowers statements and expressions. Registers are allocated
// stack-wise per expression depth; slots are assigned on first definition.
type bcCompiler struct {
	offloads  map[*For]Offload
	sites     []site
	err       error // first launch expression that reads out of scope
	code      []Op
	paramSlot map[string]int32
	localSlot map[string]int32
	ivSlot    map[string]int32
	objIdx    map[string]int32
	constIdx  map[uint64]int32 // Float64bits → pool index
	slotNames []string
	nSlots    int32
	constBase int32 // frame index of the constant pool
	regBase   int32 // frame index of register 0
	maxRegs   int32
	blocks    []Block
	block     int32 // block the code being emitted belongs to
	loop      int32 // innermost enclosing loop, -1 at top level
	nextLoop  int32 // loop-table index of the next For compiled (pre-order)
	// defined tracks locals that are definitely assigned on every path to
	// the current program point — stricter than Validate, which lets a
	// loop body's definitions persist past the loop even though a 0-trip
	// execution never runs them. Reads of locals that Validate accepted
	// but this set cannot prove get the checked opcode, preserving the
	// interpreter's runtime "read of undefined local" error.
	defined map[string]bool
}

func (c *bcCompiler) emit(op Op) int32 {
	c.code = append(c.code, op)
	return int32(len(c.code) - 1)
}

// reg returns the frame index of register r.
func (c *bcCompiler) reg(r int32) int32 {
	if r+1 > c.maxRegs {
		c.maxRegs = r + 1
	}
	return c.regBase + r
}

func (c *bcCompiler) newSlot(name string) int32 {
	s := c.nSlots
	c.nSlots++
	c.slotNames = append(c.slotNames, name)
	return s
}

// local returns the slot of local name, allocating it on first sight.
func (c *bcCompiler) local(name string) int32 {
	slot, ok := c.localSlot[name]
	if !ok {
		slot = c.newSlot(name)
		c.localSlot[name] = slot
	}
	return slot
}

func (c *bcCompiler) newBlock() int32 {
	c.blocks = append(c.blocks, Block{Loop: c.loop})
	return int32(len(c.blocks) - 1)
}

// tally adds one arithmetic op of class to the current block.
func (c *bcCompiler) tally(class OpClass) {
	b := &c.blocks[c.block]
	switch class {
	case ClassInt:
		b.IntOps++
	case ClassComplex:
		b.ComplexOps++
	case ClassFloat:
		b.FloatOps++
	}
}

func (c *bcCompiler) stmts(body []Stmt, base int32) {
	skip := false
	for _, s := range body {
		if _, store := s.(Store); !(skip && store) {
			c.stmt(s, base)
		}
		f, _ := s.(*For)
		skip = c.offloads[f].SkipNext
	}
}

// launch emits an offloaded loop's launch: its fragments, which the
// normal flow jumps over, then the launch op.
func (c *bcCompiler) launch(f *For, o Offload, base int32) {
	s := site{loop: f}
	jump := c.emit(Op{Code: OpJump})
	tally := c.blocks[c.block] // fragments run on demand, not per block entry
	for _, e := range o.Exprs {
		WalkExpr(e, func(x Expr) {
			ok := true
			switch x := x.(type) {
			case Param:
				_, ok = c.paramSlot[x.Name]
			case IV:
				_, ok = c.ivSlot[x.Name]
			case Load:
				_, ok = c.objIdx[x.Obj]
			case Local:
				c.local(x.Name)
			}
			if !ok && c.err == nil {
				c.err = fmt.Errorf("ir: launch of loop %s reads %v out of scope", f.IV, x)
			}
		})
		start := int32(len(c.code))
		res := c.operand(e, base)
		s.exprs = append(s.exprs, fragment{start, int32(len(c.code)), res})
	}
	c.blocks[c.block] = tally
	c.code[jump].Dst = int32(len(c.code))
	for _, name := range o.Outs {
		s.outs = append(s.outs, c.local(name))
	}
	c.emit(Op{Code: OpLaunch, Aux: int32(len(c.sites))})
	c.sites = append(c.sites, s)
}

func (c *bcCompiler) stmt(s Stmt, base int32) {
	switch x := s.(type) {
	case Let:
		slot := c.local(x.Name)
		c.emit(Op{Code: OpMove, Dst: slot, A: c.operand(x.E, base)})
		c.defined[x.Name] = true
	case Store:
		// Same order as the interpreter: evaluate and bounds-check the
		// index, then evaluate the value. A value read in place runs no
		// code in between, so the store's own check is the only one.
		oi := c.objIdx[x.Obj]
		idx := c.operand(x.Idx, base)
		if _, ok := c.leaf(x.Val); !ok {
			c.emit(Op{Code: OpStoreIdx, A: idx, Aux: oi})
		}
		val := c.operand(x.Val, base+1)
		c.emit(Op{Code: OpStore, A: idx, B: val, Aux: oi})
		c.blocks[c.block].Stores++
	case If:
		thenB, elseB := c.newBlock(), c.newBlock()
		jElse := c.emit(Op{Code: OpJumpIfZero, A: c.operand(x.Cond, base), B: thenB, C: elseB})
		outer := c.block
		saved := cloneSet(c.defined)
		c.block = thenB
		c.stmts(x.Then, base)
		thenDefined := c.defined
		jEnd := int32(-1)
		if len(x.Else) > 0 {
			jEnd = c.emit(Op{Code: OpJump})
		}
		c.code[jElse].Dst = int32(len(c.code))
		c.defined = cloneSet(saved)
		c.block = elseB
		c.stmts(x.Else, base)
		elseDefined := c.defined
		if jEnd >= 0 {
			c.code[jEnd].Dst = int32(len(c.code))
		}
		c.block = outer
		c.defined = saved
		for name := range thenDefined {
			if elseDefined[name] {
				c.defined[name] = true
			}
		}
	case *For:
		if o, ok := c.offloads[x]; ok {
			c.nextLoop += 1 + int32(len(Loops(x.Body))) // loops the launch replaces
			c.launch(x, o, base)
			return
		}
		li := c.nextLoop
		c.nextLoop++
		lo := c.operand(x.Lo, base)
		hi := c.bound(x.Hi, base+1)
		step := c.bound(x.Step, base+2)
		iv := c.newSlot(x.IV)
		savedIV, hadIV := c.ivSlot[x.IV]
		c.ivSlot[x.IV] = iv
		c.emit(Op{Code: OpLoopEnter, Dst: iv, A: lo, B: hi, C: step, Aux: li})
		test := c.emit(Op{Code: OpLoopTest, A: iv, B: hi, Aux: li})
		outerBlock, outerLoop := c.block, c.loop
		c.block, c.loop = li, li
		savedDefined := cloneSet(c.defined)
		c.stmts(x.Body, base+3)
		c.emit(Op{Code: OpLoopNext, Dst: test + 1, A: iv, B: hi, C: step, Aux: li})
		c.code[test].Dst = int32(len(c.code))
		c.block, c.loop = outerBlock, outerLoop
		// The body may never have executed; its definitions don't count.
		c.defined = savedDefined
		if hadIV {
			c.ivSlot[x.IV] = savedIV
		} else {
			delete(c.ivSlot, x.IV)
		}
	default:
		// Unreachable: Validate rejects unknown statement types.
		panic(fmt.Sprintf("ir: compile of unknown statement %T", s))
	}
}

// leaf returns the frame index e is read from in place: a constant, a
// parameter, an induction variable, or a local assigned on every path here.
func (c *bcCompiler) leaf(e Expr) (int32, bool) {
	switch x := e.(type) {
	case Const:
		return c.constBase + c.constIdx[math.Float64bits(x.V)], true
	case Param:
		return c.paramSlot[x.Name], true
	case IV:
		return c.ivSlot[x.Name], true
	case Local:
		if c.defined[x.Name] {
			return c.localSlot[x.Name], true
		}
	}
	return 0, false
}

// operand returns the frame index holding e's value: a leaf in place, or
// register r after emitting e's code into it (registers above r are
// scratch).
func (c *bcCompiler) operand(e Expr, r int32) int32 {
	if idx, ok := c.leaf(e); ok {
		return idx
	}
	dst := c.reg(r)
	c.expr(e, dst, r)
	return dst
}

// bound returns the frame index a loop reads its Hi or Step from on every
// iteration. A constant, a parameter or an enclosing loop's induction
// variable is read in place: the body cannot write it. Anything else — a
// local the body may reassign included — is evaluated once into register
// r, as ir.Run evaluates it once.
func (c *bcCompiler) bound(e Expr, r int32) int32 {
	switch e.(type) {
	case Const, Param, IV:
		idx, _ := c.leaf(e)
		return idx
	}
	dst := c.reg(r)
	c.expr(e, dst, r)
	return dst
}

// expr emits code leaving e's value at frame index dst, using registers r
// and up as scratch.
func (c *bcCompiler) expr(e Expr, dst, r int32) {
	switch x := e.(type) {
	case Local:
		// Only a loop bound copies a local assigned on every path.
		if idx, ok := c.leaf(e); ok {
			c.emit(Op{Code: OpMove, Dst: dst, A: idx})
		} else {
			c.emit(Op{Code: OpSlotChecked, Dst: dst, A: c.localSlot[x.Name]})
		}
	case Load:
		c.emit(Op{Code: OpLoad, Dst: dst, A: c.operand(x.Idx, r), Aux: c.objIdx[x.Obj]})
		c.blocks[c.block].Loads++
	case Bin:
		a := c.operand(x.A, r)
		b := c.operand(x.B, r+1)
		code := OpBin
		switch x.Op {
		case Add:
			code = OpAdd
		case Sub:
			code = OpSub
		case Mul:
			code = OpMul
		}
		c.emit(Op{Code: code, Dst: dst, A: a, B: b, Aux: int32(x.Op), C: int32(x.Op.Class())})
		c.tally(x.Op.Class())
	case Un:
		c.emit(Op{Code: OpUn, Dst: dst, A: c.operand(x.A, r), Aux: int32(x.Op), C: int32(x.Op.Class())})
		c.tally(x.Op.Class())
	case Sel:
		cond := c.operand(x.Cond, r)
		t := c.operand(x.T, r+1)
		f := c.operand(x.F, r+2)
		c.emit(Op{Code: OpSel, Dst: dst, A: cond, B: t, C: f})
		c.tally(ClassInt)
	default:
		panic(fmt.Sprintf("ir: compile of unknown expression %T", e))
	}
}

// Image is a serializable snapshot of a compiled program; a host program
// has none (its launch sites hold expressions). Loop identities
// (*For pointers) cannot be serialized; they are rebound positionally —
// the loop table is in Loops(kernel.Body) order, which is deterministic
// for a given kernel text — when the image is attached to a kernel again
// via ProgramFromImage.
type Image struct {
	KernelName string
	Params     []string // parameter names in slot order (frame[0:len(Params)])
	Objects    []ObjDecl
	SlotNames  []string // slot index → name, for error messages
	NLoops     int
	NSlots     int
	Consts     []float64 // constant pool, frame[NSlots:NSlots+len(Consts)]
	NRegs      int
	Blocks     []Block
	Code       []Op
}

// Image snapshots the program for serialization.
func (p *Program) Image() Image { return p.img }

// ProgramFromImage attaches a deserialized image to kernel k, which must
// be structurally identical to the kernel the image was compiled from
// (same name, parameters, objects and loop count — the invariants a
// content-addressed store key guarantees). The kernel is validated so a
// corrupt pairing fails loudly rather than executing mismatched code.
func ProgramFromImage(img Image, k *Kernel) (*Program, error) {
	if err := Validate(k); err != nil {
		return nil, err
	}
	if img.KernelName != k.Name {
		return nil, fmt.Errorf("ir: program image for kernel %q bound to %q", img.KernelName, k.Name)
	}
	if len(img.Params) != len(k.Params) {
		return nil, fmt.Errorf("ir: program image for %q has %d params, kernel has %d",
			k.Name, len(img.Params), len(k.Params))
	}
	for i, name := range img.Params {
		if k.Params[i] != name {
			return nil, fmt.Errorf("ir: program image param %d is %q, kernel declares %q", i, name, k.Params[i])
		}
	}
	if len(img.Objects) != len(k.Objects) {
		return nil, fmt.Errorf("ir: program image for %q has %d objects, kernel has %d",
			k.Name, len(img.Objects), len(k.Objects))
	}
	for i, o := range img.Objects {
		if k.Objects[i] != o {
			return nil, fmt.Errorf("ir: program image object %d is %+v, kernel declares %+v", i, o, k.Objects[i])
		}
	}
	loops := Loops(k.Body)
	if len(loops) != img.NLoops {
		return nil, fmt.Errorf("ir: program image for %q has %d loops, kernel has %d",
			k.Name, img.NLoops, len(loops))
	}
	if len(img.Blocks) <= len(loops) {
		return nil, fmt.Errorf("ir: program image for %q has %d blocks for %d loops",
			k.Name, len(img.Blocks), len(loops))
	}
	p := &Program{kernel: k, loops: loops, img: img}
	if err := p.verify(); err != nil {
		return nil, fmt.Errorf("ir: program image for %q: %w", k.Name, err)
	}
	return p, nil
}

// opFields says what each opcode's Dst, A, B, C and Aux hold, as the VM
// reads them: f a frame index, s a slot, j a jump target, b a block, l a
// loop, o an object, x a launch site, B a BinOp with C its class, U a
// UnOp with C its class, - nothing.
var opFields = [numOpCodes]string{
	OpSlotChecked: "fs---", OpMove: "ff---", OpLoad: "ff--o", OpStoreIdx: "-f--o",
	OpStore: "-ff-o", OpBin: "fff-B", OpAdd: "fff-B", OpSub: "fff-B", OpMul: "fff-B",
	OpUn: "ff--U", OpSel: "ffff-", OpJump: "j----", OpJumpIfZero: "jfbb-",
	OpLoopEnter: "ffffl", OpLoopTest: "jff-l", OpLoopNext: "jfffl", OpLaunch: "----x",
}

// verify checks everything the VM indexes with: every operand falls
// inside the frame, every jump inside the code, every block, loop, object
// and site index in range, and every operator and class is the one the
// opcode implies. ProgramFromImage runs it, so a corrupt image fails to
// load instead of panicking in Run.
func (p *Program) verify() error {
	if p.img.NSlots < len(p.img.Params) || p.img.NRegs < 0 || len(p.img.SlotNames) != p.img.NSlots {
		return fmt.Errorf("%d slots with %d names for %d params, %d registers",
			p.img.NSlots, len(p.img.SlotNames), len(p.img.Params), p.img.NRegs)
	}
	for i, b := range p.img.Blocks {
		if b.Loop < -1 || b.Loop >= int32(len(p.loops)) {
			return fmt.Errorf("block %d belongs to loop %d of %d", i, b.Loop, len(p.loops))
		}
	}
	bound := map[byte]int{
		'f': p.img.NSlots + len(p.img.Consts) + p.img.NRegs, 's': p.img.NSlots, 'j': len(p.img.Code) + 1, 'b': len(p.img.Blocks),
		'l': len(p.loops), 'o': len(p.img.Objects), 'x': len(p.sites), 'B': len(binOpNames), 'U': len(unOpNames),
	}
	for pc, op := range p.img.Code {
		if op.Code == OpInvalid || op.Code >= numOpCodes {
			return fmt.Errorf("pc %d: invalid opcode %d", pc, op.Code)
		}
		fields := opFields[op.Code]
		for i, x := range [5]int32{op.Dst, op.A, op.B, op.C, op.Aux} {
			if lim, ok := bound[fields[i]]; ok && (x < 0 || int(x) >= lim) {
				return fmt.Errorf("pc %d: opcode %d field %d is %d, outside [0, %d)", pc, op.Code, i, x, lim)
			}
		}
		if f, class := fields[4], OpClass(op.C); f == 'U' && class != UnOp(op.Aux).Class() || f == 'B' &&
			(class != BinOp(op.Aux).Class() || op.Code != OpBin && BinOp(op.Aux) != [...]BinOp{Add, Sub, Mul}[op.Code-OpAdd]) {
			return fmt.Errorf("pc %d: opcode %d with operator %d of class %d", pc, op.Code, op.Aux, op.C)
		}
	}
	return nil
}

// Rebind returns a shallow copy of the program attached to kernel k,
// which must be structurally identical to the original (same checks as
// ProgramFromImage). Cached programs compiled from one kernel instance
// are rebound to content-equal instances this way, so ByLoop counts key
// on the caller's own *For nodes.
func (p *Program) Rebind(k *Kernel) (*Program, error) {
	if k == p.kernel {
		return p, nil
	}
	return ProgramFromImage(p.Image(), k)
}
