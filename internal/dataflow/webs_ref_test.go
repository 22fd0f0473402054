package dataflow

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// The reference web builder: the paper's user-name splitting spelled out
// as it is defined (§4.1.1.1, Definition 2). Reaching definitions number
// every def site and solve the forward union problem, U-D chains list the
// defs reaching each use, and a union-find merges the defs that share a
// use. SplitWebs reaches the same partition from liveness alone; any
// instruction, register count or parameter on which splitWebsRef and
// SplitWebs disagree is a bug in SplitWebs.

// DefSite identifies one definition of a virtual register: an instruction
// (Block, Index) or, when Index == -1, the synthetic entry definition used
// for parameters and values live into the function.
type DefSite struct {
	Block *ir.Block
	Index int // instruction index, or -1 for the entry pseudo-definition
	Reg   ir.Reg
}

// ReachingDefs is the solved forward reaching-definitions problem.
type ReachingDefs struct {
	F     *ir.Func
	Sites []DefSite
	// SiteAt is positional: the instruction at index i of block b sits at
	// Start[b.ID]+i, and SiteAt holds its def site id, -1 if it defines
	// nothing. Site looks one up.
	Start  []int
	SiteAt []int
	DefsOf [][]int  // register -> site ids defining it
	In     []BitSet // per block
	Out    []BitSet
}

// Site returns the def site id of instruction i of block b, -1 if it
// defines nothing.
func (rd *ReachingDefs) Site(b *ir.Block, i int) int { return rd.SiteAt[rd.Start[b.ID]+i] }

// ComputeReachingDefs numbers every definition site and solves the forward
// union problem. Registers that are live into the entry block (parameters
// and any use not dominated by a def) get a synthetic entry definition so
// every use has at least one reaching def.
func ComputeReachingDefs(f *ir.Func, lv *Liveness) *ReachingDefs {
	rd := &ReachingDefs{
		F:      f,
		Start:  make([]int, len(f.Blocks)),
		DefsOf: make([][]int, f.NReg),
	}
	n := 0
	for _, b := range f.Blocks {
		rd.Start[b.ID] = n
		n += len(b.Instrs)
	}
	rd.SiteAt = make([]int, n)

	// Count the sites of each register, one per def and one per register
	// live into the entry, so that Sites and every DefsOf list are carved
	// at their final length from one allocation each.
	entry := f.Entry()
	off := make([]int32, f.NReg+1)
	lv.In[entry.ID].ForEach(func(r int) { off[r+1]++ })
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				off[d+1]++
			}
		}
	}
	for r := range f.NReg {
		off[r+1] += off[r]
	}
	rd.Sites = make([]DefSite, 0, off[f.NReg])
	ids := make([]int, off[f.NReg])
	for r := range rd.DefsOf {
		if off[r] < off[r+1] {
			rd.DefsOf[r] = ids[off[r]:off[r]:off[r+1]]
		}
	}
	addSite := func(b *ir.Block, idx int, r ir.Reg) {
		id := len(rd.Sites)
		rd.Sites = append(rd.Sites, DefSite{Block: b, Index: idx, Reg: r})
		rd.DefsOf[r] = append(rd.DefsOf[r], id)
		if idx >= 0 {
			rd.SiteAt[rd.Start[b.ID]+idx] = id
		}
	}

	// The entry pseudo-defs come first: they are sites [0, nentry).
	lv.In[entry.ID].ForEach(func(r int) { addSite(entry, -1, ir.Reg(r)) })
	nentry := len(rd.Sites)
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
	slab := newSlab(2*nb+2, ns)
	rd.In, rd.Out = slab.sets(nb), slab.sets(nb)
	entryGen, out := slab.next(), slab.next()

	// Per-block transfer as a flat list of gen sites, block b's being
	// gens[span[b][0]:span[b][1]]: the last def in the block of each
	// register the block defines. That def kills every def of its register
	// (DefsOf), itself included, and then generates itself. While a block
	// is listed, out marks each listed register by its first def site.
	span := make([][2]int32, nb)
	gens := make([]int32, 0, ns)
	for _, b := range f.Blocks {
		lo := len(gens)
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			d := b.Instrs[i].Def()
			if d == ir.NoReg || out.Has(rd.DefsOf[d][0]) {
				continue
			}
			out.Set(rd.DefsOf[d][0])
			gens = append(gens, int32(rd.Site(b, i)))
		}
		for _, id := range gens[lo:] {
			out.Clear(rd.DefsOf[rd.Sites[id].Reg][0])
		}
		span[b.ID] = [2]int32{int32(lo), int32(len(gens))}
	}
	// Entry pseudo-defs are generated at the top of the entry block; a
	// real def in the entry block kills them with the rest of DefsOf.
	for id := range nentry {
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
			x := span[b.ID]
			for _, id := range gens[x[0]:x[1]] {
				for _, other := range rd.DefsOf[rd.Sites[id].Reg] {
					out.Clear(other)
				}
				out.Set(int(id))
			}
			if !out.Equal(rd.Out[b.ID]) {
				copy(rd.Out[b.ID], out)
				changed = true
			}
		}
	}
	return rd
}

// Use identifies one read of a register at an instruction.
type Use struct {
	Block *ir.Block
	Index int
	Reg   ir.Reg
}

// Chains holds the D-U and U-D chains derived from reaching definitions.
type Chains struct {
	RD *ReachingDefs
	// UD maps each use to the def sites reaching it.
	UD map[Use][]int
	// DU maps each def site to its uses.
	DU [][]Use
}

// ComputeChains builds D-U and U-D chains with one lookup per use. A use of
// r defined earlier in its own block reads that one def; otherwise it reads
// the defs of r in the block's reaching-in set, found by testing DefsOf[r]
// (ascending site ids) against In. The fixed point unions entryGen into
// In[entry], so the entry pseudo-defs need no special case. The cost is
// O(uses × defs of the used register).
func ComputeChains(rd *ReachingDefs) *Chains {
	ch := &Chains{RD: rd, UD: make(map[Use][]int), DU: make([][]Use, len(rd.Sites))}
	local := make(map[ir.Reg]int) // register -> its last def site so far in the block
	var scratch []ir.Reg
	for _, b := range rd.F.Blocks {
		clear(local)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			scratch = in.AppendUses(scratch[:0])
			for _, r := range scratch {
				u := Use{Block: b, Index: i, Reg: r}
				if _, seen := ch.UD[u]; seen {
					continue // a register used twice in one instruction
				}
				var defs []int
				if id, ok := local[r]; ok {
					defs = []int{id}
				} else {
					for _, id := range rd.DefsOf[r] {
						if rd.In[b.ID].Has(id) {
							defs = append(defs, id)
						}
					}
				}
				ch.UD[u] = defs
				for _, id := range defs {
					ch.DU[id] = append(ch.DU[id], u)
				}
			}
			if d := in.Def(); d != ir.NoReg {
				local[d] = rd.Site(b, i)
			}
		}
	}
	return ch
}

// Webs partitions the definition sites of a function into webs: the
// du-chain closure the paper calls "user-name splitting" (§4.1.1.1,
// Definition 2). Two definitions of the same register belong to one web iff
// some use is reached by both. Each web is an independently allocatable
// value.
type Webs struct {
	RD     *ReachingDefs
	Chains *Chains
	parent []int // union-find over def sites
	// WebOfSite maps def site -> canonical web id (dense, 0..NWebs-1).
	WebOfSite []int
	NWebs     int
}

// ComputeWebs merges def sites that share a use.
func ComputeWebs(rd *ReachingDefs, ch *Chains) *Webs {
	w := &Webs{RD: rd, Chains: ch, parent: make([]int, len(rd.Sites))}
	for i := range w.parent {
		w.parent[i] = i
	}
	for _, defs := range ch.UD {
		for i := 1; i < len(defs); i++ {
			w.union(defs[0], defs[i])
		}
	}
	// Dense web ids.
	w.WebOfSite = make([]int, len(rd.Sites))
	index := make(map[int]int)
	for i := range rd.Sites {
		root := w.find(i)
		id, ok := index[root]
		if !ok {
			id = len(index)
			index[root] = id
		}
		w.WebOfSite[i] = id
	}
	w.NWebs = len(index)
	return w
}

func (w *Webs) find(x int) int {
	for w.parent[x] != x {
		w.parent[x] = w.parent[w.parent[x]]
		x = w.parent[x]
	}
	return x
}

func (w *Webs) union(a, b int) {
	ra, rb := w.find(a), w.find(b)
	if ra != rb {
		w.parent[ra] = rb
	}
}

// splitWebsRef is SplitWebs built from reaching definitions and U-D
// chains: one fresh register per web, uses renamed through their chains
// and parameters through their entry pseudo-definitions. Returns the
// number of webs created.
func splitWebsRef(f *ir.Func) int {
	lv := ComputeLiveness(f)
	rd := ComputeReachingDefs(f, lv)
	ch := ComputeChains(rd)
	webs := ComputeWebs(rd, ch)

	// One fresh register per web.
	webReg := make([]ir.Reg, webs.NWebs)
	for i := range webReg {
		webReg[i] = f.NewReg()
	}
	regOfSite := func(site int) ir.Reg { return webReg[webs.WebOfSite[site]] }

	// Rewrite definitions.
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Def() == ir.NoReg {
				continue
			}
			site := rd.Site(b, i)
			if site < 0 {
				continue
			}
			in.Dst = regOfSite(site)
		}
	}
	// Rewrite uses from their U-D chains. A use with no reaching defs reads
	// an undefined value (unreachable code); it keeps its register.
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			idx := i
			in.MapUses(func(r ir.Reg) ir.Reg {
				defs := ch.UD[Use{Block: b, Index: idx, Reg: r}]
				if len(defs) == 0 {
					return r
				}
				return regOfSite(defs[0])
			})
		}
	}
	// Remap parameters through their entry pseudo-defs.
	entry := f.Entry()
	pseudo := make(map[ir.Reg]ir.Reg)
	for id, s := range rd.Sites {
		if s.Block == entry && s.Index == -1 {
			pseudo[s.Reg] = regOfSite(id)
		}
	}
	for i, p := range f.Params {
		if np, ok := pseudo[p]; ok {
			f.Params[i] = np
		}
	}
	return webs.NWebs
}
