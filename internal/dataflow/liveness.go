package dataflow

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// Liveness holds per-block live-in/live-out sets of virtual registers.
type Liveness struct {
	F   *ir.Func
	In  []BitSet // indexed by block ID
	Out []BitSet

	walk BitSet      // WalkBackward's live set, reused across calls
	rpo  []*ir.Block // the blocks reachable from the entry, in reverse postorder
}

// ComputeLiveness solves backward liveness over the function's virtual
// registers with the standard worklist iteration in postorder.
//
// Each block's transfer is kept as two flat register lists rather than
// two dense sets: its upward-exposed uses (read before any write in the
// block) and its defs, so that In = (Out − defs) ∪ uses costs one step
// per listed register and the slab holds only In, Out and two scratch
// sets.
func ComputeLiveness(f *ir.Func) *Liveness {
	n := f.NReg
	nb := len(f.Blocks)
	slab := newSlab(2*nb+2, n)
	lv := &Liveness{F: f, In: slab.sets(nb), Out: slab.sets(nb)}
	newIn := slab.next()
	lv.walk = slab.next()

	// Block b's uses are regs[xfer[b].lo:xfer[b].mid] and its defs
	// regs[xfer[b].mid:xfer[b].hi]. While a block is listed, newIn marks
	// its defs so far and lv.walk its listed uses; both are cleared again.
	xfer := make([]struct{ lo, mid, hi int32 }, nb)
	ninstr := 0
	for _, b := range f.Blocks {
		ninstr += len(b.Instrs)
	}
	regs := make([]ir.Reg, 0, ninstr) // about 0.9 per instruction on progen programs
	var defs, scratch []ir.Reg
	defined, used := newIn, lv.walk
	for _, b := range f.Blocks {
		lo := len(regs)
		defs = defs[:0]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			scratch = in.AppendUses(scratch[:0])
			for _, u := range scratch {
				if !defined.Has(int(u)) && !used.Has(int(u)) {
					used.Set(int(u))
					regs = append(regs, u)
				}
			}
			if d := in.Def(); d != ir.NoReg && !defined.Has(int(d)) {
				defined.Set(int(d))
				defs = append(defs, d)
			}
		}
		mid := len(regs)
		regs = append(regs, defs...)
		for _, r := range regs[lo:mid] {
			used.Clear(int(r))
		}
		for _, r := range defs {
			defined.Clear(int(r))
		}
		xfer[b.ID] = struct{ lo, mid, hi int32 }{int32(lo), int32(mid), int32(len(regs))}
	}

	// Iterate in postorder (reverse RPO) until fixpoint.
	rpo := cfg.ReversePostorder(f)
	lv.rpo = rpo
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			out := lv.Out[b.ID]
			for _, s := range b.Succs {
				if out.UnionWith(lv.In[s.ID]) {
					changed = true
				}
			}
			copy(newIn, out)
			x := xfer[b.ID]
			for _, r := range regs[x.mid:x.hi] {
				newIn.Clear(int(r))
			}
			for _, r := range regs[x.lo:x.mid] {
				newIn.Set(int(r))
			}
			if !newIn.Equal(lv.In[b.ID]) {
				copy(lv.In[b.ID], newIn)
				changed = true
			}
		}
	}
	return lv
}

// WalkBackward visits the instructions of block b from last to first,
// passing the set of registers live *after* each instruction. The callback
// may inspect but must not retain liveAfter; it is reused across calls, so
// the callback must not start another walk of the same Liveness either.
func (lv *Liveness) WalkBackward(b *ir.Block, visit func(i int, in *ir.Instr, liveAfter BitSet)) {
	live := lv.walk
	copy(live, lv.Out[b.ID])
	var scratch []ir.Reg
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		in := &b.Instrs[i]
		visit(i, in, live)
		if d := in.Def(); d != ir.NoReg {
			live.Clear(int(d))
		}
		scratch = in.AppendUses(scratch[:0])
		for _, u := range scratch {
			live.Set(int(u))
		}
	}
}

// LiveAcrossCalls returns the set of registers that are live immediately
// after some call instruction (and therefore must survive the call).
func (lv *Liveness) LiveAcrossCalls() BitSet {
	across := NewBitSet(lv.F.NReg)
	for _, b := range lv.F.Blocks {
		lv.WalkBackward(b, func(_ int, in *ir.Instr, liveAfter BitSet) {
			if in.Op != ir.OpCall {
				return
			}
			// Registers live after the call, except the call's own result,
			// must hold their values across it.
			for wi := range across {
				w := liveAfter[wi]
				if d := in.Def(); d != ir.NoReg && int(d)/64 == wi {
					w &^= 1 << uint(int(d)%64)
				}
				across[wi] |= w
			}
		})
	}
	return across
}
