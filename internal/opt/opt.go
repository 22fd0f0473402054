// Package opt implements classic scalar IR optimizations: constant
// folding, branch folding, block-local copy propagation, and dead-code
// elimination. They run before alias annotation and register allocation,
// shrinking the instruction stream the unified-management pass classifies
// (fewer dead address computations, fewer trivially constant operands).
//
// All passes are semantics-preserving; TestOptimizeDifferential checks
// every benchmark and a window of internal/progen programs with and
// without optimization against the reference interpreter.
package opt

import (
	"repro/internal/ir"
)

// Stats reports what the optimizer did.
type Stats struct {
	FoldedConsts   int // instructions replaced by OpConst
	FoldedBranches int // conditional branches made unconditional
	NumberedValues int // recomputations replaced by copies (LVN)
	PropagatedUses int // operand uses rewritten by copy propagation
	DeadRemoved    int // instructions removed by DCE
}

// Optimize runs the pass pipeline on one function until a fixpoint (at
// most maxPasses rounds).
func Optimize(f *ir.Func) Stats {
	var total Stats
	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		st := Stats{
			FoldedConsts:   FoldConstants(f),
			NumberedValues: NumberValues(f),
			PropagatedUses: PropagateCopies(f),
		}
		st.FoldedBranches = FoldBranches(f)
		st.DeadRemoved = EliminateDeadCode(f)
		total.FoldedConsts += st.FoldedConsts
		total.FoldedBranches += st.FoldedBranches
		total.NumberedValues += st.NumberedValues
		total.PropagatedUses += st.PropagatedUses
		total.DeadRemoved += st.DeadRemoved
		if st == (Stats{}) {
			break
		}
	}
	f.Renumber()
	return total
}

// constLattice tracks, within one block, which registers currently hold a
// known constant. The IR is not SSA, so any redefinition invalidates.
type constLattice struct {
	known []bool
	val   []int64
}

func newConstLattice(n int) *constLattice {
	return &constLattice{known: make([]bool, n), val: make([]int64, n)}
}

func (c *constLattice) set(r ir.Reg, v int64) {
	c.known[r] = true
	c.val[r] = v
}

func (c *constLattice) kill(r ir.Reg) { c.known[r] = false }

func (c *constLattice) get(r ir.Reg) (int64, bool) {
	if r == ir.NoReg || !c.known[r] {
		return 0, false
	}
	return c.val[r], true
}

// FoldConstants replaces instructions whose operands are block-locally
// constant with OpConst, and returns how many it replaced.
func FoldConstants(f *ir.Func) int {
	folded := 0
	for _, b := range f.Blocks {
		lat := newConstLattice(f.NReg)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpConst:
				lat.set(in.Dst, in.Imm)
				continue
			case ir.OpCopy:
				if v, ok := lat.get(in.A); ok {
					*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, Imm: v, Pos: in.Pos}
					lat.set(in.Dst, v)
					folded++
					continue
				}
			case ir.OpNeg:
				if v, ok := lat.get(in.A); ok {
					*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, Imm: -v, Pos: in.Pos}
					lat.set(in.Dst, -v)
					folded++
					continue
				}
			case ir.OpNot:
				if v, ok := lat.get(in.A); ok {
					nv := int64(0)
					if v == 0 {
						nv = 1
					}
					*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, Imm: nv, Pos: in.Pos}
					lat.set(in.Dst, nv)
					folded++
					continue
				}
			case ir.OpBin:
				a, okA := lat.get(in.A)
				bv, okB := lat.get(in.B)
				if okA && okB {
					if v, ok := evalBin(in.Bin, a, bv); ok {
						*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, Imm: v, Pos: in.Pos}
						lat.set(in.Dst, v)
						folded++
						continue
					}
				}
			}
			if d := in.Def(); d != ir.NoReg {
				lat.kill(d)
			}
		}
	}
	return folded
}

// evalBin mirrors the interpreter's semantics; division by zero is left
// to run time (never folded).
func evalBin(op ir.BinKind, a, b int64) (int64, bool) {
	bool2i := func(c bool) int64 {
		if c {
			return 1
		}
		return 0
	}
	switch op {
	case ir.Add:
		return a + b, true
	case ir.Sub:
		return a - b, true
	case ir.Mul:
		return a * b, true
	case ir.Div:
		if b == 0 {
			return 0, false
		}
		if b == -1 {
			// Fold with the machine's wrap semantics: MinInt64 / -1
			// yields MinInt64, it does not trap.
			return -a, true
		}
		return a / b, true
	case ir.Rem:
		if b == 0 {
			return 0, false
		}
		if b == -1 {
			return 0, true
		}
		return a % b, true
	case ir.And:
		return a & b, true
	case ir.Or:
		return a | b, true
	case ir.Xor:
		return a ^ b, true
	case ir.Shl:
		return a << uint64(b&63), true
	case ir.Shr:
		return a >> uint64(b&63), true
	case ir.CmpEQ:
		return bool2i(a == b), true
	case ir.CmpNE:
		return bool2i(a != b), true
	case ir.CmpLT:
		return bool2i(a < b), true
	case ir.CmpLE:
		return bool2i(a <= b), true
	case ir.CmpGT:
		return bool2i(a > b), true
	case ir.CmpGE:
		return bool2i(a >= b), true
	}
	return 0, false
}

// FoldBranches rewrites OpBr whose condition is a block-local constant
// into OpJmp and removes the unreachable blocks that may result.
func FoldBranches(f *ir.Func) int {
	folded := 0
	for _, b := range f.Blocks {
		lat := newConstLattice(f.NReg)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpConst {
				lat.set(in.Dst, in.Imm)
				continue
			}
			if in.Op == ir.OpBr {
				if v, ok := lat.get(in.A); ok {
					target := in.Then
					if v == 0 {
						target = in.Else
					}
					*in = ir.Instr{Op: ir.OpJmp, Then: target, Pos: in.Pos}
					folded++
				}
				continue
			}
			if d := in.Def(); d != ir.NoReg {
				lat.kill(d)
			}
		}
	}
	if folded > 0 {
		f.RemoveUnreachable()
	}
	return folded
}

// PropagateCopies rewrites, within each block, uses of a copied register
// to its source while both stay unmodified. Returns the number of operand
// uses rewritten.
func PropagateCopies(f *ir.Func) int {
	rewritten := 0
	for _, b := range f.Blocks {
		src := make([]ir.Reg, f.NReg) // src[d] = current copy source of d
		for i := range src {
			src[i] = ir.NoReg
		}
		// copiedTo[s] lists registers currently copying from s, to
		// invalidate when s is redefined.
		copiedTo := make(map[ir.Reg][]ir.Reg)

		for i := range b.Instrs {
			in := &b.Instrs[i]
			// Rewrite uses through the copy map (one level; chains resolve
			// over successive passes of the driver loop).
			in.MapUses(func(r ir.Reg) ir.Reg {
				if s := src[r]; s != ir.NoReg {
					rewritten++
					return s
				}
				return r
			})
			d := in.Def()
			if d != ir.NoReg {
				// d is redefined: kill copies in both directions.
				src[d] = ir.NoReg
				for _, t := range copiedTo[d] {
					if src[t] == d {
						src[t] = ir.NoReg
					}
				}
				delete(copiedTo, d)
			}
			if in.Op == ir.OpCopy && in.Dst != in.A {
				src[in.Dst] = in.A
				copiedTo[in.A] = append(copiedTo[in.A], in.Dst)
			}
		}
	}
	return rewritten
}

// EliminateDeadCode removes side-effect-free instructions whose results
// are never used anywhere in the function, iterating to a fixpoint.
func EliminateDeadCode(f *ir.Func) int {
	removed := 0
	for {
		used := make([]bool, f.NReg)
		for _, p := range f.Params {
			used[p] = true
		}
		var scratch []ir.Reg
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				scratch = b.Instrs[i].AppendUses(scratch[:0])
				for _, u := range scratch {
					used[u] = true
				}
			}
		}
		changed := false
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for i := range b.Instrs {
				in := b.Instrs[i]
				if isPure(in.Op) && in.Dst != ir.NoReg && !used[in.Dst] {
					removed++
					changed = true
					continue
				}
				kept = append(kept, in)
			}
			b.Instrs = kept
		}
		if !changed {
			return removed
		}
	}
}

func isPure(op ir.Op) bool {
	switch op {
	case ir.OpConst, ir.OpCopy, ir.OpBin, ir.OpNeg, ir.OpNot, ir.OpAddr:
		return true
	}
	return false
}
