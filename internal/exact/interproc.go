package exact

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// fnCtx is the exact refinement's view of one function. It reads the
// function's site table (positions, ops, sites, call summaries, key order
// and may-target sets), which check builds once per SiteModel and the
// prefilter has already filled, and adds what only the refinement needs:
//
//   - the sparse-stepping tables: active[p] counts the positions before p
//     that have a transfer, and keyPos[keyOff[k]:keyOff[k+1]] lists the
//     access positions of key index k in ascending order;
//   - each site's place in its unknown group (slot) and the reverse
//     postorder index;
//   - the per-focus buffers (access and call relations, the transfer
//     scratch and the solver's chains), which every focus group of the
//     function reuses.
type fnCtx struct {
	sm    *check.SiteModel
	tab   *check.FuncTable
	f     *ir.Func
	cfg   cache.Config
	named int // key indices below named carry a name bit

	slot   []int32 // per site: 1+index in its unknown group, 0 if none
	rpoIdx []int

	active []int32 // len(Ops)+1 prefix counts of non-OpNone positions
	keyOff []int32 // per key index, its span of keyPos
	keyPos []int32 // access positions grouped by key index

	// Per-focus buffers, reused across the function's focus groups.
	// rels[i] belongs to the current focus only when relAt[i] == epoch;
	// each focus takes a fresh epoch and relates sites on first use.
	rels  []accessRel
	relAt []uint32
	epoch uint32
	calls []callRel
	buf   []state // transfer output scratch
	cur   achain  // the chain being stepped through a block
	spare achain  // stepChain output, swapped with cur
	merge achain  // successor join scratch
	in    []achain
	seen  []bool // in[b.ID] is reached
}

// unknownGroups groups the sites of tab the prefilter left unknown by
// focused block, in first-appearance order; each group lists site indices
// in program order, and slot records each grouped site's place.
func unknownGroups(tab *check.FuncTable, pre *check.CacheReport) (groups [][]int, slot []int32) {
	var group []int32 // key index → 1+group, 0 if none
	for i := range tab.Sites {
		s := &tab.Sites[i]
		if v, classified := pre.Verdicts[s.In.Ref]; !classified || v != check.Unknown {
			continue
		}
		if group == nil {
			group = make([]int32, len(tab.Keys))
			slot = make([]int32, len(tab.Sites))
		}
		if group[s.Key] == 0 {
			groups = append(groups, nil)
			group[s.Key] = int32(len(groups))
		}
		g := group[s.Key] - 1
		groups[g] = append(groups[g], i)
		slot[i] = int32(len(groups[g]))
	}
	return groups, slot
}

// newFnCtx builds the refinement's tables for a function with unknown
// groups, taking its site table from sm.
func newFnCtx(sm *check.SiteModel, f *ir.Func, ccfg cache.Config, slot []int32) *fnCtx {
	tab := sm.Table(f)
	c := &fnCtx{
		sm:     sm,
		tab:    tab,
		f:      f,
		cfg:    ccfg,
		named:  min(tab.Named, dataflow.WordBits),
		slot:   slot,
		rpoIdx: make([]int, len(f.Blocks)),
	}
	for i := range c.rpoIdx {
		c.rpoIdx[i] = -1
	}
	for i, b := range tab.RPO {
		c.rpoIdx[b.ID] = i
	}

	// Sparse-stepping tables. Sites are in program order, so each key's
	// positions come out ascending.
	c.active = make([]int32, len(tab.Ops)+1)
	for p, op := range tab.Ops {
		c.active[p+1] = c.active[p]
		if op.Kind != check.OpNone {
			c.active[p+1]++
		}
	}
	c.keyOff = make([]int32, len(tab.Keys)+1)
	for i := range tab.Sites {
		c.keyOff[tab.Sites[i].Key+1]++
	}
	for k := range len(tab.Keys) {
		c.keyOff[k+1] += c.keyOff[k]
	}
	next := slices.Clone(c.keyOff)
	c.keyPos = make([]int32, len(tab.Sites))
	for i := range tab.Sites {
		s := &tab.Sites[i]
		c.keyPos[next[s.Key]] = int32(tab.Start[s.Block]) + s.Index
		next[s.Key]++
	}

	c.rels = make([]accessRel, len(tab.Sites))
	c.relAt = make([]uint32, len(tab.Sites))
	c.calls = make([]callRel, len(tab.Sums))
	c.in = make([]achain, len(f.Blocks))
	c.seen = make([]bool, len(f.Blocks))
	return c
}

// nameBit is the name-table slot of a key index, -1 past the table.
func (c *fnCtx) nameBit(key int32) int {
	if int(key) < c.named {
		return int(key)
	}
	return -1
}

// mayBe reports whether either access could name the block the other one
// does.
func (c *fnCtx) mayBe(a, b *check.Site) bool {
	return a.Key == b.Key || c.tab.HasTarget(a.TSet, b.Key) || c.tab.HasTarget(b.TSet, a.Key)
}

// ---- interprocedural call transfer ----

// callRel is a call summary pre-related to one focus block: whether the
// callee may reference or fetch the focus line itself, and how its traffic
// ages the focus (named bits for summarized global lines, anonymous counts
// for private frame words and unnamed lines).
type callRel struct {
	uncertain bool          // callee may touch lines the summary cannot name
	mayTouch  bool          // may reference the focus line (refresh or kill it)
	mayFill   bool          // may fetch the focus line through the cache
	names     dataflow.Word // named, possibly-conflicting callee traffic
	anon      uint8         // unnamed possibly-conflicting traffic (incl. private words)
	kills     bool          // may free or demote a way in some set
}

// relateCall computes the focus-specific view of a non-clobber summary.
// Summaries only exist for one-word-line configurations, so the frame
// disjointness argument holds: callee traffic can conflict with, but never
// fetch or name, any frame-class block of this activation.
func (fo *focus) relateCall(sum *check.CallSummary) callRel {
	rel := callRel{uncertain: sum.Uncertain, kills: sum.Kills}
	focusLine, focusGlobal := fo.key.GlobalLine()
	switch {
	case fo.site.Uncertain:
		// Pseudo focus: the register may name any addressable line — any
		// of the callee's globals, but never its private words (no defined
		// program holds a pointer into a frame that does not yet exist,
		// and the staging areas are not addressable).
		rel.mayTouch = len(sum.RefSpans) > 0
		rel.mayFill = len(sum.FillSpans) > 0
	case focusGlobal:
		rel.mayTouch = sum.MayRefLine(focusLine)
		rel.mayFill = sum.MayFillLine(focusLine)
	default:
		// Frame-class focus of this activation: with one-word lines the
		// callee can only reach it through pointers, which the summary
		// reports as Uncertain.
	}

	// Aging traffic: under LRU any reference (even a bypass hit) disturbs
	// recency; under FIFO/Random/MIN only fills change the order. Scalar
	// spans become named bits when the name table holds them; array spans
	// count their set-conflicting lines anonymously (exact modular count
	// when the focus set is known, the whole span otherwise).
	spans := sum.RefSpans
	if !fo.mustOK {
		spans = sum.FillSpans
	}
	sets := int64(fo.cfg.Sets)
	anon := int64(rel.anon)
	for _, sp := range spans {
		if sp.Lo == sp.Hi {
			k := check.GlobalLineKey(sp.Lo)
			if k == fo.key {
				continue // the focus itself: covered by mayTouch
			}
			if !fo.site.Uncertain && !fo.ctx.tab.MayConflict(k, fo.key) {
				continue
			}
			if i := fo.ctx.tab.KeyIndex(k); i >= 0 && fo.ctx.nameBit(int32(i)) >= 0 {
				rel.names = rel.names.With(i)
			} else {
				anon++
			}
			continue
		}
		if focusGlobal {
			anon += sp.LinesInSet(focusLine%sets, sets)
		} else {
			anon += sp.Lines()
		}
	}
	anon += int64(sum.Private)
	if anon > 255 {
		anon = 255
	}
	rel.anon = uint8(anon)
	return rel
}

// callSummaryState transfers one state through a summarized (non-clobber)
// call. Compare callState, the blanket version: here a definitely-uncached
// block the callee provably never fetches stays definitely uncached — the
// always-miss theorems that survive call boundaries — and a resident
// block's counters absorb the callee's bounded traffic instead of
// collapsing to unknown.
func (fo *focus) callSummaryState(rel *callRel, s state) state {
	switch s.kind {
	case sNC:
		if fo.lineExact && !fo.site.Uncertain && fo.key.Private() {
			return ncState
		}
		if !rel.uncertain && !rel.mayFill {
			return ncState
		}
		return maybeState
	case sRes:
		if rel.uncertain || rel.mayTouch {
			// The callee may refresh or kill the focus line itself: the
			// counters since "last refresh" no longer mean anything.
			return maybeState
		}
		ns := s
		ns.names = ns.names.Union(rel.names)
		if a := int(ns.anon) + int(rel.anon); a > 255 {
			ns.anon = 255
		} else {
			ns.anon = uint8(a)
		}
		// No dnames: eviction proofs need definitely-distinct same-set
		// fills in a known order, which a may-summary cannot provide.
		if rel.kills {
			ns.freed = true
		}
		return fo.normalize(ns)
	default:
		return maybeState
	}
}
