// Package ir defines the three-address intermediate representation used by
// the middle end: functions of basic blocks holding instructions over an
// unbounded set of virtual registers.
//
// Memory is explicit: Addr materializes an object's address, Load/Store move
// words between registers and memory. Every Load/Store carries a MemRef
// describing what is statically known about the accessed object; the alias
// and unified-management passes refine the MemRef in place, and code
// generation reads the final verdict (bypass and last-reference bits).
package ir

import (
	"fmt"

	"repro/internal/sem"
	"repro/internal/token"
)

// Reg is a virtual register number, unique within a function. NoReg marks an
// unused operand slot.
type Reg int

// NoReg is the absent-register sentinel.
const NoReg Reg = -1

// String renders the register as %n.
func (r Reg) String() string {
	if r == NoReg {
		return "%_"
	}
	return fmt.Sprintf("%%%d", int(r))
}

// Op is an instruction opcode.
type Op int

// Opcodes.
const (
	OpNop   Op = iota
	OpConst    // Dst = Imm
	OpCopy     // Dst = A
	OpBin      // Dst = A <Bin> B
	OpNeg      // Dst = -A
	OpNot      // Dst = (A == 0)
	OpAddr     // Dst = &Obj (+ Imm words)
	OpLoad     // Dst = M[A]        (Ref)
	OpStore    // M[A] = B          (Ref)
	OpArg      // stage A as call argument number Imm
	OpCall     // Dst = Callee(previously staged args) ; Dst may be NoReg
	OpPrint    // print A (Imm==0) or printchar A (Imm==1)
	OpRet      // return A (A may be NoReg)
	OpBr       // if A != 0 goto Then else goto Else
	OpJmp      // goto Then
)

var opNames = [...]string{
	OpNop:   "nop",
	OpConst: "const",
	OpCopy:  "copy",
	OpBin:   "bin",
	OpNeg:   "neg",
	OpNot:   "not",
	OpAddr:  "addr",
	OpLoad:  "load",
	OpStore: "store",
	OpArg:   "arg",
	OpCall:  "call",
	OpPrint: "print",
	OpRet:   "ret",
	OpBr:    "br",
	OpJmp:   "jmp",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// BinKind is the operator of an OpBin instruction.
type BinKind int

// Binary operator kinds. Comparison results are 0 or 1.
const (
	Add BinKind = iota
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

var binNames = [...]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Rem: "%",
	And: "&", Or: "|", Xor: "^", Shl: "<<", Shr: ">>",
	CmpEQ: "==", CmpNE: "!=", CmpLT: "<", CmpLE: "<=", CmpGT: ">", CmpGE: ">=",
}

func (b BinKind) String() string {
	if int(b) < len(binNames) {
		return binNames[b]
	}
	return "?"
}

// RefKind classifies what a memory reference statically denotes.
type RefKind int

// Reference kinds.
const (
	RefScalar  RefKind = iota // a whole scalar object (Obj set)
	RefElement                // an element of a known array (Obj = the array)
	RefPointer                // through a pointer; targets resolved by alias analysis
	RefSpill                  // register-allocator spill slot (Slot set)
)

func (k RefKind) String() string {
	switch k {
	case RefScalar:
		return "scalar"
	case RefElement:
		return "element"
	case RefPointer:
		return "pointer"
	case RefSpill:
		return "spill"
	}
	return "?"
}

// MemRef is the static description of one load/store site. The alias pass
// fills AliasSet and Ambiguous; the unified-management pass (internal/core)
// fills Bypass and Last; code generation emits the matching instruction
// flavor (§4.3 of the paper).
type MemRef struct {
	Kind RefKind
	Obj  *sem.Object // RefScalar/RefElement: the named object
	Slot int         // RefSpill: spill slot index within the frame

	// Ptr is the pointer variable a RefPointer access syntactically goes
	// through (*p, p[i], *(p+k)), when one is evident; nil means the base
	// pointer is not a single variable and the alias pass must assume the
	// worst. The points-to analysis resolves Ptr to candidate targets.
	Ptr *sem.Object

	Site      int  // unique site number within the function (set by Renumber)
	AliasSet  int  // alias-set id, -1 before alias analysis
	Ambiguous bool // may be aliased: must use the cache path
	Bypass    bool // final verdict: reference bypasses the cache
	Last      bool // last reference to the value: dead-mark the cache line

	// Unreachable marks a pointer access whose base has an empty
	// points-to set: no object's address can flow there in any execution,
	// so the access cannot run in a defined program (it only executes
	// through a wild or null pointer, which is undefined behavior). The
	// access still compiles conservatively — Ambiguous, through-cache —
	// but whole-program soundness censuses (internal/check) may discount
	// it: it is not a threat to any live value.
	Unreachable bool
}

// String summarizes the reference and its annotations.
func (r *MemRef) String() string {
	name := ""
	switch r.Kind {
	case RefScalar, RefElement:
		if r.Obj != nil {
			name = r.Obj.Name
		}
	case RefSpill:
		name = fmt.Sprintf("slot%d", r.Slot)
	case RefPointer:
		name = "*ptr"
	}
	flags := ""
	if r.Ambiguous {
		flags += " amb"
	}
	if r.Bypass {
		flags += " bypass"
	}
	if r.Last {
		flags += " last"
	}
	return fmt.Sprintf("{%s %s%s}", r.Kind, name, flags)
}

// Instr is a single three-address instruction. Which fields are meaningful
// depends on Op; see the opcode comments.
type Instr struct {
	Op   Op
	Dst  Reg
	A, B Reg
	Imm  int64
	Bin  BinKind

	Obj    *sem.Object // OpAddr: the object whose address is taken
	Ref    *MemRef     // OpLoad/OpStore: reference description (unique per site)
	Callee *sem.Object // OpCall: function object; Imm holds the argument count

	Then *Block // OpBr/OpJmp target
	Else *Block // OpBr fall-through target

	Pos token.Pos
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool {
	return in.Op == OpBr || in.Op == OpJmp || in.Op == OpRet
}

// Def returns the register defined by the instruction, or NoReg.
func (in *Instr) Def() Reg {
	switch in.Op {
	case OpConst, OpCopy, OpBin, OpNeg, OpNot, OpAddr, OpLoad:
		return in.Dst
	case OpCall:
		return in.Dst // may be NoReg for void calls
	}
	return NoReg
}

// AppendUses appends the registers read by the instruction to dst and
// returns the extended slice (no allocation for the common cases).
func (in *Instr) AppendUses(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != NoReg {
			dst = append(dst, r)
		}
	}
	switch in.Op {
	case OpCopy, OpNeg, OpNot:
		add(in.A)
	case OpBin:
		add(in.A)
		add(in.B)
	case OpLoad:
		add(in.A)
	case OpStore:
		add(in.A)
		add(in.B)
	case OpArg:
		add(in.A)
	case OpPrint:
		add(in.A)
	case OpRet:
		add(in.A)
	case OpBr:
		add(in.A)
	}
	return dst
}

// String renders the instruction in the IR dump syntax.
func (in *Instr) String() string {
	switch in.Op {
	case OpNop:
		return "nop"
	case OpConst:
		return fmt.Sprintf("%s = const %d", in.Dst, in.Imm)
	case OpCopy:
		return fmt.Sprintf("%s = %s", in.Dst, in.A)
	case OpBin:
		return fmt.Sprintf("%s = %s %s %s", in.Dst, in.A, in.Bin, in.B)
	case OpNeg:
		return fmt.Sprintf("%s = -%s", in.Dst, in.A)
	case OpNot:
		return fmt.Sprintf("%s = !%s", in.Dst, in.A)
	case OpAddr:
		name := "?"
		if in.Obj != nil {
			name = in.Obj.Name
		}
		if in.Imm != 0 {
			return fmt.Sprintf("%s = &%s+%d", in.Dst, name, in.Imm)
		}
		return fmt.Sprintf("%s = &%s", in.Dst, name)
	case OpLoad:
		return fmt.Sprintf("%s = load [%s] %s", in.Dst, in.A, in.Ref)
	case OpStore:
		return fmt.Sprintf("store [%s] = %s %s", in.A, in.B, in.Ref)
	case OpArg:
		return fmt.Sprintf("arg%d = %s", in.Imm, in.A)
	case OpCall:
		callee := "?"
		if in.Callee != nil {
			callee = in.Callee.Name
		}
		if in.Dst != NoReg {
			return fmt.Sprintf("%s = call %s/%d", in.Dst, callee, in.Imm)
		}
		return fmt.Sprintf("call %s/%d", callee, in.Imm)
	case OpPrint:
		if in.Imm == 1 {
			return fmt.Sprintf("printchar %s", in.A)
		}
		return fmt.Sprintf("print %s", in.A)
	case OpRet:
		if in.A != NoReg {
			return fmt.Sprintf("ret %s", in.A)
		}
		return "ret"
	case OpBr:
		return fmt.Sprintf("br %s ? b%d : b%d", in.A, in.Then.ID, in.Else.ID)
	case OpJmp:
		return fmt.Sprintf("jmp b%d", in.Then.ID)
	}
	return in.Op.String()
}

// Block is a basic block: a maximal straight-line instruction sequence
// ending in exactly one terminator.
type Block struct {
	ID     int
	Instrs []Instr
	Preds  []*Block
	Succs  []*Block
}

// Term returns the block's terminator instruction, or nil if the block is
// empty or unterminated (only during construction).
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := &b.Instrs[len(b.Instrs)-1]
	if !last.IsTerminator() {
		return nil
	}
	return last
}

func (b *Block) String() string { return fmt.Sprintf("b%d", b.ID) }

// Func is a function in IR form.
type Func struct {
	Name   string
	Sem    *sem.Func
	Blocks []*Block // Blocks[0] is the entry
	NReg   int      // number of virtual registers allocated

	Params []Reg // virtual registers holding incoming parameters

	// ParamSpillSlot maps a parameter index to a spill slot when the
	// register allocator spilled the parameter's web: the incoming value
	// is stored to the slot at entry (directly from its argument register
	// or incoming stack word) and the parameter register is unused.
	ParamSpillSlot map[int]int

	// FrameObjs are the locals that need stack memory: arrays and
	// address-taken scalars. Offsets are assigned by codegen.
	FrameObjs []*sem.Object

	// SpillSlots is the number of spill slots added by register allocation.
	SpillSlots int
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := Reg(f.NReg)
	f.NReg++
	return r
}

// NewBlock appends a new empty block to the function.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Program is a whole compiled module in IR form.
type Program struct {
	Funcs   []*Func
	Globals []*sem.Object
	Sem     *sem.Info
}

// Lookup finds a function by name, or returns nil.
func (p *Program) Lookup(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// MapUses rewrites every register read by the instruction through fn.
// The set of rewritten operands mirrors AppendUses.
func (in *Instr) MapUses(fn func(Reg) Reg) {
	m := func(r Reg) Reg {
		if r == NoReg {
			return r
		}
		return fn(r)
	}
	switch in.Op {
	case OpCopy, OpNeg, OpNot:
		in.A = m(in.A)
	case OpBin:
		in.A = m(in.A)
		in.B = m(in.B)
	case OpLoad:
		in.A = m(in.A)
	case OpStore:
		in.A = m(in.A)
		in.B = m(in.B)
	case OpArg, OpPrint, OpRet, OpBr:
		in.A = m(in.A)
	}
}
