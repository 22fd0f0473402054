package exact

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/check"
	"repro/internal/ir"
)

// This file is the exact solver: the focused state domain and transfer
// functions of exact.go under a compressed representation in the style of "Fast and exact analysis for
// LRU caches" (arXiv 1811.01670). Three observations make it work:
//
//   - sNC and sMaybe are singleton valuations, so a reachable-state set is
//     at most {top}, or {nc?} plus a set of sRes counter states.
//   - The subsumption preorder on sRes states (larger upper bound, smaller
//     lower bound, freed at least as much) is exactly "keeping only the
//     weaker state loses nothing": verdicts and transfers are monotone in
//     it. A set is therefore equivalent to its antichain of weakest
//     elements — the equivalence argument against the power-set reference
//     solver the package tests keep as a differential oracle.
//   - When an antichain still grows too wide, two sRes states can be
//     *merged* (names union, distinct-fill intersection, anon max, freed
//     or) into one state subsuming both. Merging is the widening: it loses
//     precision gradually instead of collapsing to top, which is what
//     keeps call- and loop-heavy progen programs decidable.
type achain struct {
	top bool
	nc  bool
	res []state // kind sRes, pairwise unsubsumed; canon() sorts them
}

// Width caps. The merge widening degrades gracefully, so the solver affords
// a wider bound than the power-set reference's collapse caps (32 anywhere,
// 16 on back edges); at every cap it keeps a merged state where the
// reference keeps top, so it is never less precise.
const (
	maxWidth      = 64
	backedgeWidth = 16
)

func topChain() achain { return achain{top: true} }

func (a achain) size() int {
	if a.top {
		return 1
	}
	n := len(a.res)
	if a.nc {
		n++
	}
	return n
}

func (a achain) clone() achain {
	c := a
	c.res = append([]state(nil), a.res...)
	return c
}

// add folds one state in, maintaining the antichain invariant for sRes
// states: states subsumed by an existing one are dropped, existing states
// subsumed by the newcomer are evicted.
func (a *achain) add(s state) {
	if a.top {
		return
	}
	switch s.kind {
	case sMaybe:
		a.top, a.nc, a.res = true, false, nil
	case sNC:
		a.nc = true
	default:
		for _, r := range a.res {
			if subsumes(r, s) {
				return
			}
		}
		keep := a.res[:0]
		for _, r := range a.res {
			if !subsumes(s, r) {
				keep = append(keep, r)
			}
		}
		a.res = append(keep, s)
	}
}

// join folds every state of o into a; both sides keep their meaning (the
// union of reachable valuations). Reports whether a changed.
func (a *achain) join(o achain) {
	if o.top {
		a.top, a.nc, a.res = true, false, nil
		return
	}
	if o.nc {
		a.add(ncState)
	}
	for _, s := range o.res {
		a.add(s)
	}
}

// each applies f to every valuation the chain denotes (top iterates as the
// single maybe state, exactly the power-set reference's collapsed set).
func (a achain) each(f func(state)) {
	if a.top {
		f(maybeState)
		return
	}
	if a.nc {
		f(ncState)
	}
	for _, s := range a.res {
		f(s)
	}
}

// stateLess is the canonical order: a deterministic total order on sRes
// states so equal chains have equal representations.
func stateLess(x, y state) bool {
	if x.names != y.names {
		return x.names < y.names
	}
	if x.dnames != y.dnames {
		return x.dnames < y.dnames
	}
	if x.anon != y.anon {
		return x.anon < y.anon
	}
	return !x.freed && y.freed
}

// canon sorts the sRes states into the canonical order.
func (a *achain) canon() {
	sort.Slice(a.res, func(i, j int) bool { return stateLess(a.res[i], a.res[j]) })
}

// equal compares canon()ed chains.
func (a achain) equal(b achain) bool {
	if a.top != b.top || a.nc != b.nc || len(a.res) != len(b.res) {
		return false
	}
	for i := range a.res {
		if a.res[i] != b.res[i] {
			return false
		}
	}
	return true
}

// mergeStates combines two sRes states into one subsuming both: the upper
// bound takes the union (names) and maximum (anon), the lower bound the
// intersection (dnames), and freed the disjunction.
func mergeStates(x, y state) state {
	m := state{kind: sRes,
		names:  x.names.Union(y.names),
		dnames: x.dnames & y.dnames,
		anon:   x.anon,
		freed:  x.freed || y.freed,
	}
	if y.anon > m.anon {
		m.anon = y.anon
	}
	return m
}

// widenChain merges sRes states pairwise (in canonical order) until the
// chain is at most cap wide. Merged states re-normalize, which may collapse
// them to nc or top — widening composes with the eviction proof.
func (fo *focus) widenChain(a *achain, cap int) {
	for !a.top && len(a.res) > cap {
		a.canon()
		old := a.res
		a.res = nil
		for i := 0; i < len(old); i += 2 {
			if i+1 == len(old) {
				a.add(old[i])
				continue
			}
			a.add(fo.normalize(mergeStates(old[i], old[i+1])))
			if a.top {
				return
			}
		}
		if len(a.res) >= len(old) {
			// Defensive: no progress (re-adding resurrected width); give up
			// precision rather than loop.
			a.top, a.nc, a.res = true, false, nil
			return
		}
	}
}

// stepChain transfers one instruction over a chain.
func (fo *focus) stepChain(in *ir.Instr, cur achain) achain {
	if mapped := fo.maps[in]; mapped != nil {
		fo.stats.charge(cur.size())
		var out achain
		cur.each(func(s state) {
			if out.top {
				return
			}
			for _, ns := range mapped(s) {
				out.add(ns)
			}
		})
		fo.widenChain(&out, maxWidth)
		fo.stats.width(out.size())
		cur = out
	}
	// Redefining the focus pseudo-register retires the block: the register
	// now names some other line, about which nothing is known.
	if fo.k.Key.Pseudo() && in.Def() == fo.k.Key.PseudoReg() {
		return topChain()
	}
	return cur
}

// solveAntichain runs the antichain fixed point and returns the verdict at
// every wanted site; nil when the step budget ran out.
func (fo *focus) solveAntichain(wanted map[*ir.Instr]bool) map[*ir.Instr]check.Verdict {
	f := fo.f
	in := make([]*achain, len(f.Blocks))
	rpo := cfg.ReversePostorder(f)
	idx := cfg.RPOIndex(f)
	entry := f.Entry().ID
	ec := topChain()
	if fo.cold {
		ec = achain{nc: true}
	}
	in[entry] = &ec

	const maxPasses = 1 << 12
	for pass, changed := 0, true; changed; pass++ {
		changed = false
		for _, b := range rpo {
			if in[b.ID] == nil {
				continue
			}
			cur := in[b.ID].clone()
			for i := range b.Instrs {
				cur = fo.stepChain(&b.Instrs[i], cur)
			}
			if fo.stats.exhausted {
				return nil
			}
			for _, succ := range b.Succs {
				merged := cur.clone()
				if prev := in[succ.ID]; prev != nil {
					merged.join(*prev)
				}
				// Back edges (non-increasing RPO index) are where loop
				// states accumulate; widen harder there so deep loops
				// converge in few passes.
				width := maxWidth
				if idx[succ.ID] >= 0 && idx[succ.ID] <= idx[b.ID] {
					width = backedgeWidth
				}
				fo.widenChain(&merged, width)
				merged.canon()
				if prev := in[succ.ID]; prev == nil || !merged.equal(*prev) {
					in[succ.ID] = &merged
					changed = true
				}
			}
		}
		if pass > maxPasses {
			for i := range in {
				if in[i] != nil {
					t := topChain()
					in[i] = &t
				}
			}
			break
		}
	}

	// Replay once from the stable in-states, sampling the wanted sites.
	out := make(map[*ir.Instr]check.Verdict, len(wanted))
	for _, b := range f.Blocks {
		if in[b.ID] == nil {
			continue
		}
		cur := in[b.ID].clone()
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			if wanted[instr] {
				out[instr] = fo.verdictChain(cur)
			}
			cur = fo.stepChain(instr, cur)
		}
		if fo.stats.exhausted {
			return nil
		}
	}
	return out
}

// verdictChain classifies the focus block's own access given its reachable
// pre-states: every state must agree for a definite verdict.
func (fo *focus) verdictChain(a achain) check.Verdict {
	if a.top || a.size() == 0 {
		return check.Unknown
	}
	hit, miss, ok := true, true, true
	a.each(func(s state) {
		if ok && !fo.stateVote(s, &hit, &miss) {
			ok = false
		}
	})
	if !ok {
		return check.Unknown
	}
	return voteVerdict(hit, miss)
}
