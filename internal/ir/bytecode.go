package ir

import (
	"fmt"
)

// This file lowers a validated kernel to a flat register-based bytecode.
// The tree-walk interpreter (interp.go) stays as the semantic reference;
// the VM (vm.go) executes the bytecode with identical Counts, identical
// error behavior and identical stored data, replacing per-run tree walks
// on the simulator's hot paths (per-run validation, coverage analysis)
// with compile-once-execute-many programs.
//
// Name resolution happens at compile time: every parameter, local and
// induction variable gets a fixed slot in one flat array, replacing the
// interpreter's linear-scan binding environment. Expressions evaluate
// into a virtual register file whose size is the maximum expression
// depth, computed during compilation.

// OpCode enumerates bytecode operations. The encoding is part of the
// serialized program image; changing it requires bumping the artifact
// store's program format version.
type OpCode uint8

const (
	// OpInvalid guards the zero value; executing it is a bug.
	OpInvalid     OpCode = iota
	OpConst              // regs[Dst] = Val
	OpSlot               // regs[Dst] = slots[A]
	OpSlotChecked        // regs[Dst] = slots[A], failing when the local was never assigned
	OpSetSlot            // slots[Dst] = regs[A]; marks the slot assigned
	OpLoad               // regs[Dst] = obj Aux [int(regs[A])], bounds-checked and counted
	OpStoreIdx           // bounds-check int(regs[A]) against obj Aux (before the value evaluates)
	OpStore              // obj Aux [int(regs[A])] = regs[B], counted
	OpBin                // regs[Dst] = BinOp(Aux) applied to regs[A], regs[B]; C is the OpClass
	OpUn                 // regs[Dst] = UnOp(Aux) applied to regs[A]; C is the OpClass
	OpSel                // regs[Dst] = regs[A] != 0 ? regs[B] : regs[C], counted as ClassInt
	OpJump               // pc = Dst
	OpJumpIfZero         // if regs[A] == 0 { pc = Dst }
	OpLoopEnter          // loop Aux: validate step regs[C], slots[Dst] = regs[A], save cur
	OpLoopTest           // loop Aux: if !(slots[A] < regs[B]) { restore cur; pc = Dst }
	OpIterHead           // loop Aux: count the iteration and attribute to its LoopCounts
	OpLoopIncr           // slots[A] += regs[B]; pc = Dst (back to the loop test)
)

// Op is one bytecode instruction. Fields are exported so a program image
// can be gob-encoded by the artifact store; their meaning depends on Code
// (see the OpCode constants).
type Op struct {
	Code    OpCode
	Dst     int32
	A, B, C int32
	Aux     int32
	Val     float64
}

// Program is a compiled kernel: flat bytecode plus the compile-time
// resolved tables it indexes. A Program is immutable after compilation
// and safe for concurrent Run calls; each Run gets its own register file
// and slot array.
type Program struct {
	kernel    *Kernel
	name      string
	params    []string // parameter names in slot order (slots[0:len(params)])
	objs      []ObjDecl
	loops     []*For   // loop table in Loops(kernel.Body) order; IterHead/Enter index it
	slotNames []string // slot index → name, for error messages
	nSlots    int
	nRegs     int
	code      []Op
}

// Kernel returns the kernel this program was compiled from (or bound to,
// after Rebind).
func (p *Program) Kernel() *Kernel { return p.kernel }

// Ops returns the number of bytecode instructions (for tests and stats).
func (p *Program) Ops() int { return len(p.code) }

func (p *Program) String() string {
	return fmt.Sprintf("program(%s: %d ops, %d slots, %d regs)", p.name, len(p.code), p.nSlots, p.nRegs)
}

// NewProgram validates k and lowers it to bytecode. The error for an
// invalid kernel is exactly the Validate error ir.Run would return.
func NewProgram(k *Kernel) (*Program, error) {
	if err := Validate(k); err != nil {
		return nil, err
	}
	c := &bcCompiler{
		k:         k,
		paramSlot: map[string]int32{},
		localSlot: map[string]int32{},
		ivSlot:    map[string]int32{},
		loopIdx:   map[*For]int32{},
		objIdx:    map[string]int32{},
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
	for i, f := range loops {
		c.loopIdx[f] = int32(i)
	}
	c.stmts(k.Body, 0)
	if c.maxRegs == 0 {
		c.maxRegs = 1
	}
	return &Program{
		kernel:    k,
		name:      k.Name,
		params:    append([]string(nil), k.Params...),
		objs:      append([]ObjDecl(nil), k.Objects...),
		loops:     loops,
		slotNames: c.slotNames,
		nSlots:    int(c.nSlots),
		nRegs:     int(c.maxRegs),
		code:      c.code,
	}, nil
}

// bcCompiler lowers statements and expressions. Registers are allocated
// stack-wise per expression depth; slots are assigned on first definition.
type bcCompiler struct {
	k         *Kernel
	code      []Op
	paramSlot map[string]int32
	localSlot map[string]int32
	ivSlot    map[string]int32
	loopIdx   map[*For]int32
	objIdx    map[string]int32
	slotNames []string
	nSlots    int32
	maxRegs   int32
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

func (c *bcCompiler) reg(r int32) int32 {
	if r+1 > c.maxRegs {
		c.maxRegs = r + 1
	}
	return r
}

func (c *bcCompiler) newSlot(name string) int32 {
	s := c.nSlots
	c.nSlots++
	c.slotNames = append(c.slotNames, name)
	return s
}

func (c *bcCompiler) stmts(body []Stmt, base int32) {
	for _, s := range body {
		c.stmt(s, base)
	}
}

func (c *bcCompiler) stmt(s Stmt, base int32) {
	switch x := s.(type) {
	case Let:
		slot, ok := c.localSlot[x.Name]
		if !ok {
			slot = c.newSlot(x.Name)
			c.localSlot[x.Name] = slot
		}
		c.expr(x.E, base)
		c.emit(Op{Code: OpSetSlot, Dst: slot, A: base})
		c.defined[x.Name] = true
	case Store:
		// Same order as the interpreter: evaluate and bounds-check the
		// index, then evaluate the value.
		c.expr(x.Idx, base)
		c.emit(Op{Code: OpStoreIdx, A: base, Aux: c.objIdx[x.Obj]})
		c.expr(x.Val, c.reg(base+1))
		c.emit(Op{Code: OpStore, A: base, B: base + 1, Aux: c.objIdx[x.Obj]})
	case If:
		c.expr(x.Cond, base)
		jElse := c.emit(Op{Code: OpJumpIfZero, A: base})
		saved := cloneSet(c.defined)
		c.stmts(x.Then, base)
		thenDefined := c.defined
		jEnd := c.emit(Op{Code: OpJump})
		c.code[jElse].Dst = int32(len(c.code))
		c.defined = cloneSet(saved)
		c.stmts(x.Else, base)
		elseDefined := c.defined
		c.code[jEnd].Dst = int32(len(c.code))
		c.defined = saved
		for name := range thenDefined {
			if elseDefined[name] {
				c.defined[name] = true
			}
		}
	case *For:
		li := c.loopIdx[x]
		rLo, rHi, rStep := base, c.reg(base+1), c.reg(base+2)
		c.expr(x.Lo, rLo)
		c.expr(x.Hi, rHi)
		c.expr(x.Step, rStep)
		iv := c.newSlot(x.IV)
		savedIV, hadIV := c.ivSlot[x.IV]
		c.ivSlot[x.IV] = iv
		c.emit(Op{Code: OpLoopEnter, Dst: iv, A: rLo, B: rHi, C: rStep, Aux: li})
		test := c.emit(Op{Code: OpLoopTest, A: iv, B: rHi, Aux: li})
		c.emit(Op{Code: OpIterHead, Aux: li})
		savedDefined := cloneSet(c.defined)
		c.stmts(x.Body, c.reg(base+3))
		c.emit(Op{Code: OpLoopIncr, A: iv, B: rStep, Dst: test})
		c.code[test].Dst = int32(len(c.code))
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

func (c *bcCompiler) expr(e Expr, dst int32) {
	c.reg(dst)
	switch x := e.(type) {
	case Const:
		c.emit(Op{Code: OpConst, Dst: dst, Val: x.V})
	case Param:
		c.emit(Op{Code: OpSlot, Dst: dst, A: c.paramSlot[x.Name]})
	case IV:
		c.emit(Op{Code: OpSlot, Dst: dst, A: c.ivSlot[x.Name]})
	case Local:
		slot := c.localSlot[x.Name]
		if c.defined[x.Name] {
			c.emit(Op{Code: OpSlot, Dst: dst, A: slot})
		} else {
			c.emit(Op{Code: OpSlotChecked, Dst: dst, A: slot})
		}
	case Load:
		c.expr(x.Idx, dst)
		c.emit(Op{Code: OpLoad, Dst: dst, A: dst, Aux: c.objIdx[x.Obj]})
	case Bin:
		c.expr(x.A, dst)
		c.expr(x.B, c.reg(dst+1))
		c.emit(Op{Code: OpBin, Dst: dst, A: dst, B: dst + 1,
			Aux: int32(x.Op), C: int32(x.Op.Class())})
	case Un:
		c.expr(x.A, dst)
		c.emit(Op{Code: OpUn, Dst: dst, A: dst, Aux: int32(x.Op), C: int32(x.Op.Class())})
	case Sel:
		c.expr(x.Cond, dst)
		c.expr(x.T, c.reg(dst+1))
		c.expr(x.F, c.reg(dst+2))
		c.emit(Op{Code: OpSel, Dst: dst, A: dst, B: dst + 1, C: dst + 2})
	default:
		panic(fmt.Sprintf("ir: compile of unknown expression %T", e))
	}
}

// Image is a serializable snapshot of a compiled program. Loop identities
// (*For pointers) cannot be serialized; they are rebound positionally —
// the loop table is in Loops(kernel.Body) order, which is deterministic
// for a given kernel text — when the image is attached to a kernel again
// via ProgramFromImage.
type Image struct {
	KernelName string
	Params     []string
	Objects    []ObjDecl
	SlotNames  []string
	NLoops     int
	NSlots     int
	NRegs      int
	Code       []Op
}

// Image snapshots the program for serialization.
func (p *Program) Image() Image {
	return Image{
		KernelName: p.name,
		Params:     p.params,
		Objects:    p.objs,
		SlotNames:  p.slotNames,
		NLoops:     len(p.loops),
		NSlots:     p.nSlots,
		NRegs:      p.nRegs,
		Code:       p.code,
	}
}

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
	return &Program{
		kernel:    k,
		name:      img.KernelName,
		params:    img.Params,
		objs:      img.Objects,
		loops:     loops,
		slotNames: img.SlotNames,
		nSlots:    img.NSlots,
		nRegs:     img.NRegs,
		code:      img.Code,
	}, nil
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
