package dataflow

import (
	"slices"

	"repro/internal/ir"
)

// The reference chain builder: copy each block's whole reaching-in set into
// a per-register map, then walk the block forward. It costs O(blocks ×
// reaching sites) map inserts per function, which is why production looks
// each use up lazily instead (ComputeChains); any UD or DU list, or order,
// on which the two disagree is a bug in the lazy lookup.
func chainsOracle(rd *ReachingDefs) *Chains {
	ch := &Chains{RD: rd, UD: make(map[Use][]int), DU: make([][]Use, len(rd.Sites))}
	f := rd.F
	// cur[r] = set of site ids of r currently reaching, maintained per block.
	for _, b := range f.Blocks {
		cur := make(map[ir.Reg][]int)
		rd.In[b.ID].ForEach(func(id int) {
			s := rd.Sites[id]
			cur[s.Reg] = append(cur[s.Reg], id)
		})
		// Entry pseudo-defs reach from the top of the entry block.
		if b == f.Entry() {
			for id, s := range rd.Sites {
				if s.Index == -1 && !slices.Contains(cur[s.Reg], id) {
					cur[s.Reg] = append(cur[s.Reg], id)
				}
			}
		}
		var scratch []ir.Reg
		for i := range b.Instrs {
			in := &b.Instrs[i]
			scratch = in.AppendUses(scratch[:0])
			for _, r := range scratch {
				u := Use{Block: b, Index: i, Reg: r}
				if _, seen := ch.UD[u]; seen {
					continue // a register used twice in one instruction
				}
				defs := append([]int(nil), cur[r]...)
				ch.UD[u] = defs
				for _, id := range defs {
					ch.DU[id] = append(ch.DU[id], u)
				}
			}
			if d := in.Def(); d != ir.NoReg {
				id := rd.Site(b, i)
				cur[d] = cur[d][:0]
				cur[d] = append(cur[d], id)
			}
		}
	}
	return ch
}
