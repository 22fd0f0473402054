package dataflow

import "repro/internal/ir"

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

// SplitWebs renames registers so each web gets its own fresh virtual
// register, rebuilding f in place. This is the paper's value-based naming:
// after splitting, live ranges are per-value, not per-variable, so the
// allocator never merges disjoint uses of a reused temporary. Parameter
// registers are remapped via their entry pseudo-definitions.
//
// Returns the number of webs created.
func SplitWebs(f *ir.Func) int {
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
	// an undefined value (dead code guarded by liveness); give it a fresh
	// register so it stays structurally valid.
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
