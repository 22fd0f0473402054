// Package codegen lowers annotated, register-allocated IR to UM machine
// code. It implements the calling convention, frame layout, and the
// translation of MemRef annotations into the bypass/last instruction bits
// (the four load/store flavors of §4.3).
//
// Frame layout, word offsets from SP (stack grows down):
//
//	[0 .. outArgs)              outgoing stack arguments (args beyond a0-a3)
//	[outArgs .. +spills)        register-allocator spill slots
//	[.. +frame objects)         arrays and address-taken scalars
//	[.. +saved)                 saved RA and callee-saved registers
//
// Incoming stack arguments live in the caller's outgoing area at
// SP + frameSize + (argIndex - 4).
//
// Compiler-private stack traffic (spills, saved registers, argument
// passing) follows the paper's unified model when compiling in Unified
// mode: stores go through the cache (AmSp_STORE), the single consuming
// reload bypasses with the dead-mark bit set (UmAm_LOAD + Last), so frame
// words never linger in cache after their last use.
package codegen

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/regalloc"
	"repro/internal/sem"
)

// GlobalBase is the first address of the global segment (matches
// irinterp's layout for cross-checking).
const GlobalBase int64 = 64

// Generate lowers a compilation to a linked UM program.
func Generate(c *core.Compilation) (*isa.Program, error) {
	prog, _, err := lower(c, false)
	return prog, err
}

// SiteTable maps the machine PC of every LW/SW emitted for an IR-level
// reference site to that site's MemRef. Prologue/epilogue saves, argument
// staging and parameter spilling carry no MemRef and are absent — they are
// machine-invented traffic, not classified sites.
type SiteTable map[int]*ir.MemRef

// GenerateWithSites lowers a compilation and additionally reports where
// every classified reference site landed in the instruction stream, so
// trace-level oracles can match dynamic references back to static
// verdicts.
func GenerateWithSites(c *core.Compilation) (*isa.Program, SiteTable, error) {
	return lower(c, true)
}

func lower(c *core.Compilation, withSites bool) (*isa.Program, SiteTable, error) {
	g := &generator{
		comp: c,
		prog: &isa.Program{
			Labels:     make(map[string]int),
			GlobalInit: make(map[int64]int64),
			Symbols:    make(map[string]int64),
			GlobalBase: GlobalBase,
		},
		globalAddr: make(map[*sem.Object]int64),
	}
	if withSites {
		g.sites = make(SiteTable)
	}

	// Global data layout.
	next := GlobalBase
	for _, obj := range c.Prog.Globals {
		g.globalAddr[obj] = next
		g.prog.Symbols[obj.Name] = next
		if obj.Type.IsInt() && obj.InitVal != 0 {
			g.prog.GlobalInit[next] = obj.InitVal
		}
		next += int64(obj.Type.Words())
	}
	g.prog.GlobalWords = next - GlobalBase

	// Lay out every frame first, so that the instruction stream can be
	// sized exactly before any of it is emitted: a program keeps its
	// Instrs for as long as it is stored, so it holds no slack.
	frames := make([]frameLayout, len(c.Prog.Funcs))
	n := 2 // the startup stub
	for i, f := range c.Prog.Funcs {
		if err := g.enter(f); err != nil {
			return nil, nil, err
		}
		frames[i] = g.layoutFrame(f)
		n += g.size(&frames[i])
	}
	g.prog.Instrs = make([]isa.Instr, 0, n)

	// Startup stub.
	g.prog.Entry = 0
	g.emit(isa.Instr{Op: isa.JAL, Sym: "main"})
	g.emit(isa.Instr{Op: isa.HALT})

	for i, f := range c.Prog.Funcs {
		if err := g.enter(f); err != nil {
			return nil, nil, err
		}
		g.frame = frames[i]
		if err := g.genFunc(); err != nil {
			return nil, nil, err
		}
	}
	if err := g.resolve(); err != nil {
		return nil, nil, err
	}
	if err := g.prog.Validate(); err != nil {
		return nil, nil, err
	}
	return g.prog, g.sites, nil
}

type generator struct {
	comp       *core.Compilation
	prog       *isa.Program
	globalAddr map[*sem.Object]int64
	sites      SiteTable // nil unless site recording was requested

	// Per-function state.
	f         *ir.Func
	alloc     *regalloc.Allocation
	frame     frameLayout
	blockName func(*ir.Block) string
}

type frameLayout struct {
	outArgs   int64 // words for outgoing stack arguments
	spillBase int64
	objBase   int64
	objOff    map[*sem.Object]int64
	savedBase int64
	size      int64
	hasCalls  bool
	read      []bool // register -> some instruction reads it
}

func (g *generator) emit(in isa.Instr) { g.prog.Instrs = append(g.prog.Instrs, in) }

// site records that the next emitted instruction implements the given
// IR-level reference. Emission order makes the PC len(Instrs); resolve
// only patches operands, so PCs are final.
func (g *generator) site(ref *ir.MemRef) {
	if g.sites != nil {
		g.sites[len(g.prog.Instrs)] = ref
	}
}

func (g *generator) label(name string) { g.prog.Labels[name] = len(g.prog.Instrs) }

// resolve patches symbolic branch targets to absolute PCs.
func (g *generator) resolve() error {
	for pc := range g.prog.Instrs {
		in := &g.prog.Instrs[pc]
		switch in.Op {
		case isa.J, isa.JAL, isa.BEQZ, isa.BNEZ:
			if in.Sym == "" {
				continue
			}
			target, ok := g.prog.Labels[in.Sym]
			if !ok {
				return fmt.Errorf("codegen: undefined label %q", in.Sym)
			}
			in.Target = target
		}
	}
	return nil
}

// phys maps a virtual register to its allocated physical register.
func (g *generator) phys(r ir.Reg) (int, error) {
	p, ok := g.alloc.PhysOf[r]
	if !ok {
		return 0, fmt.Errorf("codegen: %s: virtual register %s has no color", g.f.Name, r)
	}
	return p, nil
}

// unified reports whether the paper's management model is active.
func (g *generator) unified() bool { return g.comp.Config.Mode == core.Unified }

// frameFlags returns the (bypass, last) bits for compiler-private frame
// traffic: store=false gives the reload side.
func (g *generator) frameFlags(store bool, lastLoad bool) (bypass, last bool) {
	if !g.unified() {
		return false, false
	}
	if store {
		return false, false // AmSp_STORE: through the cache
	}
	return true, lastLoad // UmAm_LOAD (+ kill on final read)
}

func (g *generator) layoutFrame(f *ir.Func) frameLayout {
	var fl frameLayout
	fl.objOff = make(map[*sem.Object]int64)
	fl.read = make([]bool, f.NReg)
	maxExtra := 0
	var scratch []ir.Reg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			scratch = in.AppendUses(scratch[:0])
			for _, u := range scratch {
				fl.read[u] = true
			}
			if in.Op == ir.OpCall {
				fl.hasCalls = true
				if extra := int(in.Imm) - len(isa.ArgRegs()); extra > maxExtra {
					maxExtra = extra
				}
			}
		}
	}
	fl.outArgs = int64(maxExtra)
	fl.spillBase = fl.outArgs
	fl.objBase = fl.spillBase + int64(f.SpillSlots)
	off := fl.objBase
	for _, obj := range f.FrameObjs {
		fl.objOff[obj] = off
		off += int64(obj.Type.Words())
	}
	fl.savedBase = off
	saved := int64(len(g.alloc.UsedCalleeSaved))
	if fl.hasCalls {
		saved++ // RA
	}
	fl.size = fl.savedBase + saved
	return fl
}

// enter makes f the function being lowered.
func (g *generator) enter(f *ir.Func) error {
	g.f = f
	g.alloc = g.comp.Allocs[f.Name]
	if g.alloc == nil {
		return fmt.Errorf("codegen: no allocation for %s", f.Name)
	}
	g.blockName = func(b *ir.Block) string { return fmt.Sprintf("%s.b%d", f.Name, b.ID) }
	return nil
}

// size returns the number of machine instructions genFunc emits for the
// current function laid out as fl. It makes each of genFunc's and
// genInstr's choices the same way: which moves are elided, which jumps
// fall through, how long each epilogue is.
func (g *generator) size(fl *frameLayout) int {
	f, phys := g.f, g.alloc.PhysOf
	n := len(g.alloc.UsedCalleeSaved) // prologue saves
	epilogue := len(g.alloc.UsedCalleeSaved) + 1
	if fl.size > 0 {
		n++
		epilogue++
	}
	if fl.hasCalls {
		n++
		epilogue++
	}
	argRegs := isa.ArgRegs()
	for i, p := range f.Params {
		_, spilled := f.ParamSpillSlot[i]
		switch {
		case spilled && i >= len(argRegs):
			n += 2
		case spilled:
			n++
		case !fl.read[p]:
		case i >= len(argRegs) || phys[p] != argRegs[i]:
			n++
		}
	}
	for bi, b := range f.Blocks {
		var next *ir.Block
		if bi+1 < len(f.Blocks) {
			next = f.Blocks[bi+1]
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpNop:
			case ir.OpCopy:
				if phys[in.Dst] != phys[in.A] {
					n++
				}
			case ir.OpArg:
				if k := int(in.Imm); k >= len(argRegs) || phys[in.A] != argRegs[k] {
					n++
				}
			case ir.OpCall:
				n++
				if in.Dst != ir.NoReg && phys[in.Dst] != isa.V0 {
					n++
				}
			case ir.OpRet:
				n += epilogue
				if in.A != ir.NoReg && phys[in.A] != isa.V0 {
					n++
				}
			case ir.OpBr:
				n++
				if in.Then != next && in.Else != next {
					n++
				}
			case ir.OpJmp:
				if in.Then != next {
					n++
				}
			default:
				n++
			}
		}
	}
	return n
}

// genFunc lowers the current function, laid out as g.frame.
func (g *generator) genFunc() error {
	f := g.f
	g.label(f.Name)

	// Prologue.
	if g.frame.size > 0 {
		g.emit(isa.Instr{Op: isa.ADDI, Rd: isa.SP, Rs: isa.SP, Imm: -g.frame.size})
	}
	savedOff := g.frame.savedBase
	if g.frame.hasCalls {
		by, la := g.frameFlags(true, false)
		g.emit(isa.Instr{Op: isa.SW, Rs: isa.SP, Rt: isa.RA, Imm: savedOff, Bypass: by, Last: la})
		savedOff++
	}
	for _, cs := range g.alloc.UsedCalleeSaved {
		by, la := g.frameFlags(true, false)
		g.emit(isa.Instr{Op: isa.SW, Rs: isa.SP, Rt: cs, Imm: savedOff, Bypass: by, Last: la})
		savedOff++
	}
	// Move incoming arguments into their colors (or spill slots). A
	// parameter that is never read gets no move: its interference node is
	// isolated, so its color may legitimately collide with a live
	// parameter's, and a move would clobber the live value.
	argRegs := isa.ArgRegs()
	for i, p := range f.Params {
		if slot, spilled := f.ParamSpillSlot[i]; spilled {
			by, la := g.frameFlags(true, false)
			if i < len(argRegs) {
				// Store the incoming argument register straight to the slot.
				g.emit(isa.Instr{Op: isa.SW, Rs: isa.SP, Rt: argRegs[i],
					Imm: g.frame.spillBase + int64(slot), Bypass: by, Last: la})
			} else {
				// Stage the incoming stack word through a scratch register.
				lby, lla := g.frameFlags(false, true)
				g.emit(isa.Instr{Op: isa.LW, Rd: isa.T9, Rs: isa.SP,
					Imm: g.frame.size + int64(i-len(argRegs)), Bypass: lby, Last: lla})
				g.emit(isa.Instr{Op: isa.SW, Rs: isa.SP, Rt: isa.T9,
					Imm: g.frame.spillBase + int64(slot), Bypass: by, Last: la})
			}
			continue
		}
		if !g.frame.read[p] {
			continue // dead parameter: no move, no load
		}
		pr, err := g.phys(p)
		if err != nil {
			return err
		}
		if i < len(argRegs) {
			if pr != argRegs[i] {
				g.emit(isa.Instr{Op: isa.MOVE, Rd: pr, Rs: argRegs[i]})
			}
			continue
		}
		// Stack argument: single consuming load kills the caller's store.
		by, la := g.frameFlags(false, true)
		g.emit(isa.Instr{Op: isa.LW, Rd: pr, Rs: isa.SP,
			Imm: g.frame.size + int64(i-len(argRegs)), Bypass: by, Last: la})
	}

	// Body.
	for bi, b := range f.Blocks {
		g.label(g.blockName(b))
		var next *ir.Block
		if bi+1 < len(f.Blocks) {
			next = f.Blocks[bi+1]
		}
		for i := range b.Instrs {
			if err := g.genInstr(&b.Instrs[i], next); err != nil {
				return err
			}
		}
	}
	return nil
}

var binOp = map[ir.BinKind]isa.Op{
	ir.Add: isa.ADD, ir.Sub: isa.SUB, ir.Mul: isa.MUL, ir.Div: isa.DIV,
	ir.Rem: isa.REM, ir.And: isa.AND, ir.Or: isa.OR, ir.Xor: isa.XOR,
	ir.Shl: isa.SLLV, ir.Shr: isa.SRAV,
	ir.CmpEQ: isa.SEQ, ir.CmpNE: isa.SNE, ir.CmpLT: isa.SLT,
	ir.CmpLE: isa.SLE, ir.CmpGT: isa.SGT, ir.CmpGE: isa.SGE,
}

func (g *generator) genInstr(in *ir.Instr, next *ir.Block) error {
	switch in.Op {
	case ir.OpNop:
		return nil

	case ir.OpConst:
		rd, err := g.phys(in.Dst)
		if err != nil {
			return err
		}
		g.emit(isa.Instr{Op: isa.LI, Rd: rd, Imm: in.Imm})

	case ir.OpCopy:
		rd, err := g.phys(in.Dst)
		if err != nil {
			return err
		}
		rs, err := g.phys(in.A)
		if err != nil {
			return err
		}
		if rd != rs {
			g.emit(isa.Instr{Op: isa.MOVE, Rd: rd, Rs: rs})
		}

	case ir.OpBin:
		rd, err := g.phys(in.Dst)
		if err != nil {
			return err
		}
		rs, err := g.phys(in.A)
		if err != nil {
			return err
		}
		rt, err := g.phys(in.B)
		if err != nil {
			return err
		}
		op, ok := binOp[in.Bin]
		if !ok {
			return fmt.Errorf("codegen: unhandled binary op %s", in.Bin)
		}
		g.emit(isa.Instr{Op: op, Rd: rd, Rs: rs, Rt: rt})

	case ir.OpNeg, ir.OpNot:
		rd, err := g.phys(in.Dst)
		if err != nil {
			return err
		}
		rs, err := g.phys(in.A)
		if err != nil {
			return err
		}
		op := isa.NEG
		if in.Op == ir.OpNot {
			op = isa.NOT
		}
		g.emit(isa.Instr{Op: op, Rd: rd, Rs: rs})

	case ir.OpAddr:
		rd, err := g.phys(in.Dst)
		if err != nil {
			return err
		}
		if off, ok := g.frame.objOff[in.Obj]; ok {
			g.emit(isa.Instr{Op: isa.ADDI, Rd: rd, Rs: isa.SP, Imm: off + in.Imm})
			return nil
		}
		if addr, ok := g.globalAddr[in.Obj]; ok {
			g.emit(isa.Instr{Op: isa.LI, Rd: rd, Imm: addr + in.Imm})
			return nil
		}
		return fmt.Errorf("codegen: %s: no storage for %s", g.f.Name, in.Obj.Name)

	case ir.OpLoad:
		rd, err := g.phys(in.Dst)
		if err != nil {
			return err
		}
		if in.Ref.Kind == ir.RefSpill {
			g.site(in.Ref)
			g.emit(isa.Instr{Op: isa.LW, Rd: rd, Rs: isa.SP,
				Imm:    g.frame.spillBase + int64(in.Ref.Slot),
				Bypass: in.Ref.Bypass, Last: in.Ref.Last})
			return nil
		}
		rs, err := g.phys(in.A)
		if err != nil {
			return err
		}
		g.site(in.Ref)
		g.emit(isa.Instr{Op: isa.LW, Rd: rd, Rs: rs,
			Bypass: in.Ref.Bypass, Last: in.Ref.Last})

	case ir.OpStore:
		rt, err := g.phys(in.B)
		if err != nil {
			return err
		}
		if in.Ref.Kind == ir.RefSpill {
			g.site(in.Ref)
			g.emit(isa.Instr{Op: isa.SW, Rs: isa.SP, Rt: rt,
				Imm:    g.frame.spillBase + int64(in.Ref.Slot),
				Bypass: in.Ref.Bypass, Last: in.Ref.Last})
			return nil
		}
		rs, err := g.phys(in.A)
		if err != nil {
			return err
		}
		g.site(in.Ref)
		g.emit(isa.Instr{Op: isa.SW, Rs: rs, Rt: rt,
			Bypass: in.Ref.Bypass, Last: in.Ref.Last})

	case ir.OpArg:
		ar, err := g.phys(in.A)
		if err != nil {
			return err
		}
		argRegs := isa.ArgRegs()
		i := int(in.Imm)
		if i < len(argRegs) {
			if ar != argRegs[i] {
				g.emit(isa.Instr{Op: isa.MOVE, Rd: argRegs[i], Rs: ar})
			}
			return nil
		}
		by, la := g.frameFlags(true, false)
		g.emit(isa.Instr{Op: isa.SW, Rs: isa.SP, Rt: ar,
			Imm: int64(i - len(argRegs)), Bypass: by, Last: la})

	case ir.OpCall:
		g.emit(isa.Instr{Op: isa.JAL, Sym: in.Callee.Name})
		if in.Dst != ir.NoReg {
			rd, err := g.phys(in.Dst)
			if err != nil {
				return err
			}
			if rd != isa.V0 {
				g.emit(isa.Instr{Op: isa.MOVE, Rd: rd, Rs: isa.V0})
			}
		}

	case ir.OpPrint:
		rs, err := g.phys(in.A)
		if err != nil {
			return err
		}
		g.emit(isa.Instr{Op: isa.PRINT, Rs: rs, Imm: in.Imm})

	case ir.OpRet:
		if in.A != ir.NoReg {
			rs, err := g.phys(in.A)
			if err != nil {
				return err
			}
			if rs != isa.V0 {
				g.emit(isa.Instr{Op: isa.MOVE, Rd: isa.V0, Rs: rs})
			}
		}
		g.genEpilogue()

	case ir.OpBr:
		rs, err := g.phys(in.A)
		if err != nil {
			return err
		}
		switch {
		case in.Else == next:
			g.emit(isa.Instr{Op: isa.BNEZ, Rs: rs, Sym: g.blockName(in.Then)})
		case in.Then == next:
			g.emit(isa.Instr{Op: isa.BEQZ, Rs: rs, Sym: g.blockName(in.Else)})
		default:
			g.emit(isa.Instr{Op: isa.BNEZ, Rs: rs, Sym: g.blockName(in.Then)})
			g.emit(isa.Instr{Op: isa.J, Sym: g.blockName(in.Else)})
		}

	case ir.OpJmp:
		if in.Then != next {
			g.emit(isa.Instr{Op: isa.J, Sym: g.blockName(in.Then)})
		}

	default:
		return fmt.Errorf("codegen: unhandled IR op %s", in.Op)
	}
	return nil
}

func (g *generator) genEpilogue() {
	savedOff := g.frame.savedBase
	if g.frame.hasCalls {
		by, la := g.frameFlags(false, true)
		g.emit(isa.Instr{Op: isa.LW, Rd: isa.RA, Rs: isa.SP, Imm: savedOff, Bypass: by, Last: la})
		savedOff++
	}
	for _, cs := range g.alloc.UsedCalleeSaved {
		by, la := g.frameFlags(false, true)
		g.emit(isa.Instr{Op: isa.LW, Rd: cs, Rs: isa.SP, Imm: savedOff, Bypass: by, Last: la})
		savedOff++
	}
	if g.frame.size > 0 {
		g.emit(isa.Instr{Op: isa.ADDI, Rd: isa.SP, Rs: isa.SP, Imm: g.frame.size})
	}
	g.emit(isa.Instr{Op: isa.JR, Rs: isa.RA})
}
