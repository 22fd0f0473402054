package exact

import (
	"repro/internal/cfg"
	"repro/internal/check"
)

// The power-set reference solver: the antichain solver's transfer functions
// over plain state sets, collapsed to top beyond a fixed width. Any verdict
// it disagrees on is a bug in the antichain compression or merge widening.

type stateSet map[state]struct{}

// maxStates caps a state set's size; beyond it the set collapses to the
// uninformative top. Widening in the classical sense is unnecessary — the
// domain is finite — but the cap bounds the constant.
const maxStates = 32

func single(s state) stateSet { return stateSet{s: {}} }

func cloneSet(ss stateSet) stateSet {
	c := make(stateSet, len(ss))
	for s := range ss {
		c[s] = struct{}{}
	}
	return c
}

// reduce canonicalizes a set: collapse on top, drop subsumed states, cap.
func reduce(ss stateSet) stateSet {
	if _, ok := ss[maybeState]; ok && len(ss) > 1 {
		return single(maybeState)
	}
	if len(ss) > 1 {
		for s := range ss {
			for w := range ss {
				if w != s && subsumes(w, s) {
					delete(ss, s)
					break
				}
			}
		}
	}
	if len(ss) > maxStates {
		return single(maybeState)
	}
	return ss
}

func setsEqual(a, b stateSet) bool {
	if len(a) != len(b) {
		return false
	}
	for s := range a {
		if _, ok := b[s]; !ok {
			return false
		}
	}
	return true
}

// transferInstr maps a state set through the instruction at position pos,
// by the antichain solver's positional transfer.
func (fo *focus) transferInstr(pos int, ss stateSet) stateSet {
	out := ss
	op := fo.ctx.ops[pos]
	if op.kind != opNone {
		fo.stats.charge(len(ss))
		out = make(stateSet, len(ss))
		for s := range ss {
			fo.ctx.buf = fo.transfer(fo.ctx.buf[:0], op, s)
			for _, ns := range fo.ctx.buf {
				out[ns] = struct{}{}
			}
		}
		out = reduce(out)
		fo.stats.width(len(out))
	}
	// Redefining the focus pseudo-register retires the block: the register
	// now names some other line, about which nothing is known.
	if fo.pseudo && op.def == fo.retire {
		return single(maybeState)
	}
	return out
}

// solve runs the power-set fixed point and returns the verdict at each
// site of the focus group, in group order; nil when the step budget ran
// out.
func (fo *focus) solve() []check.Verdict {
	f := fo.ctx.f
	in := make([]stateSet, len(f.Blocks))
	rpo := cfg.ReversePostorder(f)
	idx := cfg.RPOIndex(f)
	entry := f.Entry().ID
	if fo.cold {
		in[entry] = single(ncState)
	} else {
		in[entry] = single(maybeState)
	}

	// Worklist sweep in reverse postorder; guard against pathological
	// non-convergence by degrading to top.
	const maxPasses = 1 << 12
	for pass, changed := 0, true; changed; pass++ {
		changed = false
		for _, b := range rpo {
			ss := in[b.ID]
			if ss == nil {
				continue
			}
			cur := cloneSet(ss)
			p := fo.ctx.start[b.ID]
			for i := range b.Instrs {
				cur = fo.transferInstr(p+i, cur)
			}
			if fo.stats.exhausted {
				return nil
			}
			for _, succ := range b.Succs {
				merged := cloneSet(cur)
				if prev := in[succ.ID]; prev != nil {
					for s := range prev {
						merged[s] = struct{}{}
					}
				}
				merged = reduce(merged)
				// Back edges (non-increasing RPO index) are where loop
				// states accumulate; widen there with a tighter cap so
				// deep loops converge in few passes.
				if idx[succ.ID] >= 0 && idx[succ.ID] <= idx[b.ID] && len(merged) > maxStates/2 {
					merged = single(maybeState)
				}
				if in[succ.ID] == nil || !setsEqual(merged, in[succ.ID]) {
					in[succ.ID] = merged
					changed = true
				}
			}
		}
		if pass > maxPasses {
			for i := range in {
				if in[i] != nil {
					in[i] = single(maybeState)
				}
			}
			break
		}
	}

	// Replay once from the stable in-states, sampling the group's sites.
	out := make([]check.Verdict, len(fo.group))
	for _, b := range f.Blocks {
		ss := in[b.ID]
		if ss == nil {
			continue
		}
		cur := cloneSet(ss)
		p := fo.ctx.start[b.ID]
		for i := range b.Instrs {
			if j := fo.sampled(p + i); j >= 0 {
				out[j] = fo.verdictOf(cur)
			}
			cur = fo.transferInstr(p+i, cur)
		}
		if fo.stats.exhausted {
			return nil
		}
	}
	return out
}

// verdictOf classifies the focus block's own access given its reachable
// pre-states: every state must agree for a definite verdict.
func (fo *focus) verdictOf(ss stateSet) check.Verdict {
	if len(ss) == 0 {
		return check.Unknown
	}
	hit, miss := true, true
	for s := range ss {
		if !fo.stateVote(s, &hit, &miss) {
			return check.Unknown
		}
	}
	return voteVerdict(hit, miss)
}
