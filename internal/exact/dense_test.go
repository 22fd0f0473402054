package exact

import "repro/internal/check"

// The dense reference solver: the antichain fixed point stepped one
// instruction at a time, with every site related to the focus up front.
// It is what solveAntichain computed before it skipped top stretches and
// related sites on first use; the two must agree on every verdict, the
// step count, the peak width and the exhaustion point.
func (fo *focus) solveDense() []check.Verdict {
	c := fo.ctx
	for i := range c.tab.Sites {
		fo.rel(int32(i))
	}
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
			p := c.tab.Start[b.ID]
			for i := range b.Instrs {
				fo.stepChain(p+i, cur)
			}
			if fo.stats.exhausted {
				return nil
			}
			for _, succ := range b.Succs {
				merged, prev := &c.merge, &in[succ.ID]
				merged.copyFrom(cur)
				if seen[succ.ID] {
					merged.join(*prev)
				}
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

	out := make([]check.Verdict, len(fo.group))
	for _, b := range c.f.Blocks {
		if !seen[b.ID] {
			continue
		}
		cur.copyFrom(&in[b.ID])
		p := c.tab.Start[b.ID]
		for i := range b.Instrs {
			if j := fo.sampled(p + i); j >= 0 {
				out[j] = fo.verdictChain(*cur)
			}
			fo.stepChain(p+i, cur)
		}
		if fo.stats.exhausted {
			return nil
		}
	}
	return out
}
