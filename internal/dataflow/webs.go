package dataflow

import (
	"math/bits"

	"repro/internal/ir"
)

// SplitWebs renames registers so each web gets its own fresh virtual
// register, rebuilding f in place. This is the paper's value-based naming
// ("user-name splitting", §4.1.1.1 Definition 2): a web is the closure of
// the definitions that reach a common use, so after splitting live ranges
// are per-value, not per-variable, and the allocator never merges disjoint
// uses of a reused temporary. Parameter registers are remapped via their
// entry pseudo-definitions.
//
// The webs come from liveness and a union-find, with no reaching
// definitions or chains. If r is live into block s, every definition of r
// reaching s reaches one common use, so all of them belong to one web;
// a node per (block, register live into it) stands for that web. Along
// each edge p→s out of a reachable p, s's node for r joins p's exit value
// of r: p's last definition of r, or else p's own node for r. A use reads
// the last definition before it in its block, or else its block's node.
// Definitions join exactly when some use is reached by both, as the
// chains would join them.
//
// Returns the number of webs created.
func SplitWebs(f *ir.Func) int {
	lv := ComputeLiveness(f)
	entry := f.Entry()
	nb := len(f.Blocks)

	// Node ids. Def sites come first, numbered as the chain formulation
	// numbers them: one entry pseudo-definition per register live into the
	// entry, in ascending register order, then every definition in block
	// and instruction order. Then one node per (non-entry block, register
	// live into it); the entry's nodes are its pseudo-definitions.
	// Unreachable blocks have no live-in registers, so no nodes.
	w := &webs{lv: lv, start: make([]blockNodes, nb), cur: make([]int32, f.NReg), at: make([]int32, f.NReg)}
	n := int32(lv.In[entry.ID].Count())
	for _, b := range f.Blocks {
		w.start[b.ID].def = n
		for i := range b.Instrs {
			if b.Instrs[i].Def() != ir.NoReg {
				n++
			}
		}
	}
	nsites := n
	for _, b := range f.Blocks {
		if b != entry {
			w.start[b.ID].live = n
			n += int32(lv.In[b.ID].Count())
		}
	}
	w.parent = make([]int32, n)
	for i := range w.parent {
		w.parent[i] = -1
	}

	// Join each live-in node with the value that flows into it along every
	// edge from a reachable block. An unreachable block reaches nothing.
	for _, p := range lv.rpo {
		w.enter(p, 0)
		site := w.start[p.ID].def
		for i := range p.Instrs {
			if d := p.Instrs[i].Def(); d != ir.NoReg {
				w.cur[d] = site
				site++
			}
		}
		for _, s := range p.Succs {
			k := w.start[s.ID].live
			for wi, word := range lv.In[s.ID] {
				for ; word != 0; word &= word - 1 {
					w.union(k, w.cur[wi*64+bits.TrailingZeros64(word)])
					k++
				}
			}
		}
	}

	// Web id is the rank of the web's lowest def site. A root's parent
	// holds -2-id once its web is numbered, -1 before.
	nwebs := int32(0)
	for x := range nsites {
		if r := w.root(x); w.parent[r] == -1 {
			w.parent[r] = -2 - nwebs
			nwebs++
		}
	}
	w.base = ir.Reg(f.NReg)
	f.NReg += int(nwebs)

	// Rewrite definitions and uses. A use with no reaching definition
	// reads an undefined value (unreachable code); it keeps its register
	// so the function stays structurally valid.
	for _, b := range f.Blocks {
		stamp := int32(b.ID + 1)
		w.enter(b, stamp)
		site := w.start[b.ID].def
		for i := range b.Instrs {
			in := &b.Instrs[i]
			in.MapUses(func(r ir.Reg) ir.Reg {
				if w.at[r] != stamp {
					return r
				}
				return w.reg(w.cur[r])
			})
			if d := in.Def(); d != ir.NoReg {
				w.cur[d], w.at[d] = site, stamp
				in.Dst = w.reg(site)
				site++
			}
		}
	}

	// Remap parameters through their entry pseudo-definitions.
	live := lv.In[entry.ID]
	for i, p := range f.Params {
		if live.Has(int(p)) {
			f.Params[i] = w.reg(int32(live.rank(int(p))))
		}
	}
	return int(nwebs)
}

// blockNodes locates a block's nodes: the id of its first def site and
// of its first live-in node.
type blockNodes struct{ def, live int32 }

// webs is SplitWebs' state: a union-find over nodes, and the value node
// of each register at the current point of a block walk. at guards cur:
// cur[r] holds for the block walk stamped at[r] and for no other.
type webs struct {
	lv      *Liveness
	start   []blockNodes
	parent  []int32 // union-find; a negative entry marks a root
	cur, at []int32
	base    ir.Reg // the first fresh register
}

// enter starts a walk of block b: each register live into b holds b's
// node for it.
func (w *webs) enter(b *ir.Block, stamp int32) {
	k := w.start[b.ID].live
	for wi, word := range w.lv.In[b.ID] {
		for ; word != 0; word &= word - 1 {
			r := wi*64 + bits.TrailingZeros64(word)
			w.cur[r], w.at[r] = k, stamp
			k++
		}
	}
}

func (w *webs) root(x int32) int32 {
	for w.parent[x] >= 0 {
		if g := w.parent[w.parent[x]]; g >= 0 {
			w.parent[x] = g
		}
		x = w.parent[x]
	}
	return x
}

func (w *webs) union(a, b int32) {
	if ra, rb := w.root(a), w.root(b); ra != rb {
		w.parent[ra] = rb
	}
}

// reg returns the fresh register of node x's web.
func (w *webs) reg(x int32) ir.Reg { return w.base + ir.Reg(-2-w.parent[w.root(x)]) }
