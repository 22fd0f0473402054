package dataflow

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// The dense references for liveness and reaching definitions: each block's
// transfer as two bit sets over every register (use, def) or every def
// site (gen, kill), as the solvers kept them before their transfers became
// flat lists. Any In or Out set, site numbering or DefsOf list on which
// production and reference disagree is a bug in the lists.

func livenessOracle(f *ir.Func) *Liveness {
	n := f.NReg
	nb := len(f.Blocks)
	lv := &Liveness{F: f, In: make([]BitSet, nb), Out: make([]BitSet, nb)}
	use, def := make([]BitSet, nb), make([]BitSet, nb)
	for i := range nb {
		lv.In[i], lv.Out[i], use[i], def[i] = NewBitSet(n), NewBitSet(n), NewBitSet(n), NewBitSet(n)
	}
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
	newIn := NewBitSet(n)
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

func reachOracle(f *ir.Func, lv *Liveness) *ReachingDefs {
	rd := &ReachingDefs{F: f, Start: make([]int, len(f.Blocks)), DefsOf: make([][]int, f.NReg)}
	n := 0
	for _, b := range f.Blocks {
		rd.Start[b.ID] = n
		n += len(b.Instrs)
	}
	rd.SiteAt = make([]int, n)
	addSite := func(b *ir.Block, idx int, r ir.Reg) int {
		id := len(rd.Sites)
		rd.Sites = append(rd.Sites, DefSite{Block: b, Index: idx, Reg: r})
		rd.DefsOf[r] = append(rd.DefsOf[r], id)
		if idx >= 0 {
			rd.SiteAt[rd.Start[b.ID]+idx] = id
		}
		return id
	}
	entry := f.Entry()
	var entrySites []int
	lv.In[entry.ID].ForEach(func(r int) {
		entrySites = append(entrySites, addSite(entry, -1, ir.Reg(r)))
	})
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				addSite(b, i, d)
			} else {
				rd.SiteAt[rd.Start[b.ID]+i] = -1
			}
		}
	}

	ns := len(rd.Sites)
	nb := len(f.Blocks)
	gen, kill := make([]BitSet, nb), make([]BitSet, nb)
	rd.In, rd.Out = make([]BitSet, nb), make([]BitSet, nb)
	for i := range nb {
		gen[i], kill[i], rd.In[i], rd.Out[i] = NewBitSet(ns), NewBitSet(ns), NewBitSet(ns), NewBitSet(ns)
	}
	// A def of r kills all other defs of r.
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			d := b.Instrs[i].Def()
			if d == ir.NoReg {
				continue
			}
			id := rd.Site(b, i)
			for _, other := range rd.DefsOf[d] {
				gen[b.ID].Clear(other)
				kill[b.ID].Set(other)
			}
			kill[b.ID].Clear(id)
			gen[b.ID].Set(id)
		}
	}
	entryGen, out := NewBitSet(ns), NewBitSet(ns)
	for _, id := range entrySites {
		entryGen.Set(id)
	}
	rpo := cfg.ReversePostorder(f)
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			in := rd.In[b.ID]
			if b == entry {
				in.UnionWith(entryGen)
			}
			for _, p := range b.Preds {
				in.UnionWith(rd.Out[p.ID])
			}
			copy(out, in)
			out.DiffWith(kill[b.ID])
			out.UnionWith(gen[b.ID])
			if !out.Equal(rd.Out[b.ID]) {
				copy(rd.Out[b.ID], out)
				changed = true
			}
		}
	}
	return rd
}
