package exact

import (
	"cmp"
	"slices"

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

// copyFrom makes a equal to o, reusing a's storage.
func (a *achain) copyFrom(o *achain) {
	a.top, a.nc, a.res = o.top, o.nc, append(a.res[:0], o.res...)
}

// reset empties a (no valuation), keeping its storage.
func (a *achain) reset() { a.top, a.nc, a.res = false, false, a.res[:0] }

// setTop collapses a to top, keeping its storage.
func (a *achain) setTop() { a.top, a.nc, a.res = true, false, a.res[:0] }

// add folds one state in, maintaining the antichain invariant for sRes
// states: states subsumed by an existing one are dropped, existing states
// subsumed by the newcomer are evicted.
func (a *achain) add(s state) {
	if a.top {
		return
	}
	switch s.kind {
	case sMaybe:
		a.setTop()
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
		a.setTop()
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

// stateCmp is the canonical order: a deterministic total order on sRes
// states so equal chains have equal representations.
func stateCmp(x, y state) int {
	if c := cmp.Compare(x.names, y.names); c != 0 {
		return c
	}
	if c := cmp.Compare(x.dnames, y.dnames); c != 0 {
		return c
	}
	if c := cmp.Compare(x.anon, y.anon); c != 0 {
		return c
	}
	switch {
	case x.freed == y.freed:
		return 0
	case y.freed:
		return -1
	}
	return 1
}

// canon sorts the sRes states into the canonical order. The order is
// total and an antichain holds no duplicates, so the result does not
// depend on the sort algorithm.
func (a *achain) canon() { slices.SortFunc(a.res, stateCmp) }

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
// them to nc or top — widening composes with the eviction proof. It merges
// in place: the pair at old[i], old[i+1] is read before the add that may
// write index i/2, and adds never write past it.
func (fo *focus) widenChain(a *achain, cap int) {
	for !a.top && len(a.res) > cap {
		a.canon()
		old := a.res
		a.res = old[:0]
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
			a.setTop()
			return
		}
	}
}

// stepChain transfers the chain at *cur through the instruction at
// position pos, in place: the transfer writes into the fnCtx's spare chain,
// which then swaps storage with *cur.
func (fo *focus) stepChain(pos int, cur *achain) {
	op := fo.ctx.tab.Ops[pos]
	if op.Kind != check.OpNone {
		fo.stats.charge(cur.size())
		out := &fo.ctx.spare
		out.reset()
		if cur.top {
			fo.addTransfer(out, op, maybeState)
		} else {
			if cur.nc {
				fo.addTransfer(out, op, ncState)
			}
			for _, s := range cur.res {
				fo.addTransfer(out, op, s)
			}
		}
		fo.widenChain(out, maxWidth)
		fo.stats.width(out.size())
		*cur, *out = *out, *cur
	}
	// Redefining the focus pseudo-register retires the block: the register
	// now names some other line, about which nothing is known. Retire only
	// ever names a pseudo-block, so no other focus is retired.
	if op.Retire == fo.site.Key {
		cur.setTop()
	}
}

// stepBlock transfers the chain at *cur through block b, sampling the
// verdict at each of the group's sites into out when out is non-nil.
//
// Top is absorbing everywhere but at the focus key's own accesses: with a
// top input, caseOther, the call transfers and argState all return top, an
// access that only may be the focus adds caseOther's top, and retiring the
// focus register sets top. So while the chain is top the step jumps to the
// block's next focus-key access and charges the skipped positions in one
// go: a width-1 chain per position that has a transfer, the steps and peak
// width the per-instruction loop records. The group's sampled sites are
// focus-key accesses, so no jump passes one.
func (fo *focus) stepBlock(b *ir.Block, cur *achain, out []check.Verdict) {
	c := fo.ctx
	p, end := c.tab.Start[b.ID], c.tab.Start[b.ID]+len(b.Instrs)
	for p < end {
		if cur.top {
			q := fo.nextAccess(p, end)
			if n := int(c.active[q] - c.active[p]); n > 0 {
				fo.stats.charge(n)
				fo.stats.width(1)
			}
			if p = q; p == end {
				return
			}
		}
		if out != nil {
			if j := fo.sampled(p); j >= 0 {
				out[j] = fo.verdictChain(*cur)
			}
		}
		fo.stepChain(p, cur)
		p++
	}
}

// nextAccess returns the first position in [p, end) that accesses the
// focus key, or end when there is none.
func (fo *focus) nextAccess(p, end int) int {
	i, _ := slices.BinarySearch(fo.keyPos, int32(p))
	if i < len(fo.keyPos) && int(fo.keyPos[i]) < end {
		return int(fo.keyPos[i])
	}
	return end
}

// addTransfer folds into out every state s maps to through op (nothing
// once out is top).
func (fo *focus) addTransfer(out *achain, op check.InstrOp, s state) {
	if out.top {
		return
	}
	fo.ctx.buf = fo.transfer(fo.ctx.buf[:0], op, s)
	for _, ns := range fo.ctx.buf {
		out.add(ns)
	}
}

// solveAntichain runs the antichain fixed point and returns the verdict at
// each site of the focus group, in group order; nil when the step budget
// ran out. The in-states and step chains live in the fnCtx's buffers.
func (fo *focus) solveAntichain() []check.Verdict {
	c := fo.ctx
	in, seen, cur := c.in, c.seen, &c.cur
	clear(seen)
	entry := c.f.Entry().ID
	seen[entry] = true
	in[entry].reset()
	if fo.cold {
		in[entry].nc = true
	} else {
		in[entry].top = true
	}

	const maxPasses = 1 << 12
	for pass, changed := 0, true; changed; pass++ {
		changed = false
		for _, b := range c.tab.RPO {
			if !seen[b.ID] {
				continue
			}
			cur.copyFrom(&in[b.ID])
			fo.stepBlock(b, cur, nil)
			if fo.stats.exhausted {
				return nil
			}
			for _, succ := range b.Succs {
				merged, prev := &c.merge, &in[succ.ID]
				merged.copyFrom(cur)
				if seen[succ.ID] {
					merged.join(*prev)
				}
				// Back edges (non-increasing RPO index) are where loop
				// states accumulate; widen harder there so deep loops
				// converge in few passes.
				width := maxWidth
				if c.rpoIdx[succ.ID] >= 0 && c.rpoIdx[succ.ID] <= c.rpoIdx[b.ID] {
					width = backedgeWidth
				}
				fo.widenChain(merged, width)
				merged.canon()
				if !seen[succ.ID] || !merged.equal(*prev) {
					prev.copyFrom(merged)
					seen[succ.ID] = true
					changed = true
				}
			}
		}
		if pass > maxPasses {
			for i := range in {
				if seen[i] {
					in[i].setTop()
				}
			}
			break
		}
	}

	// Replay once from the stable in-states, sampling the group's sites.
	out := make([]check.Verdict, len(fo.group))
	for _, b := range c.f.Blocks {
		if !seen[b.ID] {
			continue
		}
		cur.copyFrom(&in[b.ID])
		fo.stepBlock(b, cur, out)
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
