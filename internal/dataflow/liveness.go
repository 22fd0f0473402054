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

	walk BitSet // WalkBackward's live set, reused across calls
}

// ComputeLiveness solves backward liveness over the function's virtual
// registers with the standard worklist iteration in postorder.
func ComputeLiveness(f *ir.Func) *Liveness {
	n := f.NReg
	nb := len(f.Blocks)
	slab := newSlab(4*nb+2, n)
	lv := &Liveness{F: f, In: slab.sets(nb), Out: slab.sets(nb)}
	use, def := slab.sets(nb), slab.sets(nb)
	newIn := slab.next()
	lv.walk = slab.next()
	var scratch []ir.Reg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			scratch = in.AppendUses(scratch[:0])
			for _, u := range scratch {
				if !def[b.ID].Has(int(u)) {
					use[b.ID].Set(int(u))
				}
			}
			if d := in.Def(); d != ir.NoReg {
				def[b.ID].Set(int(d))
			}
		}
	}

	// Iterate in postorder (reverse RPO) until fixpoint.
	rpo := cfg.ReversePostorder(f)
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
			newIn.DiffWith(def[b.ID])
			newIn.UnionWith(use[b.ID])
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
