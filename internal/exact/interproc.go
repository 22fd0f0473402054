package exact

import (
	"sort"

	"repro/internal/check"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// fnCtx caches the per-function site facts every focus key of the function
// shares: resolved site descriptions, O(1) may-target membership per
// distinct access signature, and (in interprocedural mode) the call
// summaries per call instruction. Without it, building the per-focus site
// relations re-resolves and re-enumerates alias targets for every
// (focus key × site) pair — quadratic in the number of keys, the PR-4
// scaling wall on progen-size programs.
type fnCtx struct {
	sm    *check.SiteModel
	fs    *check.FuncSites
	f     *ir.Func
	sites map[*ir.Instr]check.SiteInfo

	namedKeys []check.SiteKey

	// targets memoizes may-target membership by access signature: two
	// sites with the same (key, uncertainty, alias set) have the same
	// target set, and membership queries replace slice scans.
	targets map[targetSig]map[check.SiteKey]bool

	// callSums maps each OpCall to its callee's effect summary (nil when
	// interprocedural mode is off — the blanket clobber). summaryKeys are
	// the global-line keys those summaries reference, sorted, for the
	// focus name table.
	callSums    map[*ir.Instr]*check.CallSummary
	summaryKeys []check.SiteKey
}

type targetSig struct {
	key       check.SiteKey
	uncertain bool
	set       int
}

func newFnCtx(sm *check.SiteModel, f *ir.Func) *fnCtx {
	c := &fnCtx{
		sm:       sm,
		fs:       sm.Func(f),
		f:        f,
		sites:    make(map[*ir.Instr]check.SiteInfo),
		targets:  make(map[targetSig]map[check.SiteKey]bool),
		callSums: make(map[*ir.Instr]*check.CallSummary),
	}
	c.namedKeys = c.fs.NamedKeys()
	seenLine := make(map[int64]bool)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if si, ok := c.fs.Resolve(in); ok {
				c.sites[in] = si
				continue
			}
			if in.Op == ir.OpCall && sm.Interproc() {
				sum := sm.CallSummary(in)
				c.callSums[in] = sum
				if !sum.Clobber {
					// Only single-line spans become named bits; wider spans
					// age as anonymous traffic (one bit per array element
					// would overflow any name table).
					for _, sp := range sum.RefSpans {
						if sp.Lo == sp.Hi {
							seenLine[sp.Lo] = true
						}
					}
				}
			}
		}
	}
	if len(seenLine) > 0 {
		lines := make([]int64, 0, len(seenLine))
		for l := range seenLine {
			lines = append(lines, l)
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
		for _, l := range lines {
			c.summaryKeys = append(c.summaryKeys, check.GlobalLineKey(l))
		}
	}
	return c
}

// site returns the memoized resolution of a reference instruction.
func (c *fnCtx) site(in *ir.Instr) (check.SiteInfo, bool) {
	si, ok := c.sites[in]
	return si, ok
}

// targetSet returns (memoizing per signature) the may-target membership set
// of an access.
func (c *fnCtx) targetSet(si check.SiteInfo) map[check.SiteKey]bool {
	sig := targetSig{key: si.Key, uncertain: si.Uncertain, set: si.AliasSet}
	if m, ok := c.targets[sig]; ok {
		return m
	}
	m := make(map[check.SiteKey]bool)
	for _, t := range c.fs.MayTargets(si) {
		m[t] = true
	}
	c.targets[sig] = m
	return m
}

// mayBe reports, with O(1) membership, whether either access could name
// the block the other one does.
func (c *fnCtx) mayBe(a, b check.SiteInfo) bool {
	if a.Key == b.Key {
		return true
	}
	return c.targetSet(a)[b.Key] || c.targetSet(b)[a.Key]
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
func (fo *focus) relateCall(sum *check.CallSummary) *callRel {
	rel := &callRel{uncertain: sum.Uncertain, kills: sum.Kills}
	focusLine, focusGlobal := fo.k.Key.GlobalLine()
	switch {
	case fo.k.Uncertain:
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
			if k == fo.k.Key {
				continue // the focus itself: covered by mayTouch
			}
			if !fo.k.Uncertain && !fo.ctx.fs.MayConflict(k, fo.k.Key) {
				continue
			}
			if bit, ok := fo.nameIdx[k]; ok {
				rel.names = rel.names.With(bit)
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
func (fo *focus) callSummaryState(rel *callRel, s state) []state {
	switch s.kind {
	case sNC:
		if fo.lineExact && !fo.k.Uncertain && fo.k.Key.Private() {
			return []state{ncState}
		}
		if !rel.uncertain && !rel.mayFill {
			return []state{ncState}
		}
		return []state{maybeState}
	case sRes:
		if rel.uncertain || rel.mayTouch {
			// The callee may refresh or kill the focus line itself: the
			// counters since "last refresh" no longer mean anything.
			return []state{maybeState}
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
		return []state{fo.normalize(ns)}
	default:
		return []state{maybeState}
	}
}
