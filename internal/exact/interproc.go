package exact

import (
	"slices"
	"sort"

	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/check"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// fnCtx holds the tables every focus key of one function shares, built
// once per function instead of once per focus:
//
//   - positions: instruction i of block b sits at start[b.ID]+i, and ops
//     gives each position its transfer (an access site, a distinct call
//     summary, a blanket clobber, an argument store, or nothing) plus the
//     register it defines;
//   - sites: every classified reference site in program order, with its
//     resolved description, its dense key index and its may-target set;
//   - key indices: named blocks first, then the summarized global lines,
//     then the remaining (pseudo) site keys, so a key's name bit is its
//     index when that is below dataflow.WordBits;
//   - may-target sets as bitsets over key indices, one per distinct access
//     signature, so mayBe is two bit tests;
//   - the reverse postorder and its index;
//   - the sparse-stepping tables: active[p] counts the positions before p
//     that have a transfer, and keyPos[keyOff[k]:keyOff[k+1]] lists the
//     access positions of key index k in ascending order.
//
// It also owns the per-focus buffers (access and call relations, the
// transfer scratch and the solver's chains), which every focus group of
// the function reuses. Without the shared tables, building a focus
// re-resolved sites and rebuilt hashed relations for every (focus key ×
// instruction) pair: quadratic map work in the number of keys.
type fnCtx struct {
	sm  *check.SiteModel
	fs  *check.FuncSites
	f   *ir.Func
	cfg cache.Config

	start []int                // start[b.ID]: position of b's first instruction
	ops   []instrOp            // per position
	sites []siteRef            // per access site, in program order
	sums  []*check.CallSummary // distinct non-clobber call summaries

	keyIdx map[check.SiteKey]int
	named  int // key indices below named carry a name bit

	// tbits holds the may-target bitsets, words uint64s each.
	tbits []uint64
	words int

	rpo    []*ir.Block
	rpoIdx []int

	active []int32 // len(ops)+1 prefix counts of non-opNone positions
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

// Transfer kinds of an instruction position.
const (
	opNone    uint8 = iota // no effect on the focus
	opAccess               // reference site: arg indexes sites
	opSummary              // summarized call: arg indexes sums
	opClobber              // blanket-clobber call
	opArg                  // outgoing argument store
)

type instrOp struct {
	kind uint8
	arg  int32
	def  ir.Reg // register the instruction defines (ir.NoReg if none)
}

// siteRef is one classified reference site of the function.
type siteRef struct {
	in    *ir.Instr
	block int // b.ID
	index int // instruction index within the block
	info  check.SiteInfo
	key   int // key index of info.Key
	tset  int // may-target bitset; -1 when the site can only name its own block
	slot  int // 1+index in its unknown group (see unknownGroups), 0 if none
}

type targetSig struct {
	key       check.SiteKey
	uncertain bool
	set       int
}

func newFnCtx(sm *check.SiteModel, f *ir.Func, ccfg cache.Config) *fnCtx {
	c := &fnCtx{
		sm:     sm,
		fs:     sm.Func(f),
		f:      f,
		cfg:    ccfg,
		start:  make([]int, len(f.Blocks)),
		keyIdx: make(map[check.SiteKey]int),
		rpo:    cfg.ReversePostorder(f),
		rpoIdx: cfg.RPOIndex(f),
	}
	n := 0
	for _, b := range f.Blocks {
		c.start[b.ID] = n
		n += len(b.Instrs)
	}
	c.ops = make([]instrOp, n)
	sumIdx := make(map[*check.CallSummary]int)
	seenLine := make(map[int64]bool)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			op := &c.ops[c.start[b.ID]+i]
			op.def = in.Def()
			if si, ok := c.fs.Resolve(in); ok {
				op.kind, op.arg = opAccess, int32(len(c.sites))
				c.sites = append(c.sites, siteRef{in: in, block: b.ID, index: i, info: si})
				continue
			}
			switch in.Op {
			case ir.OpArg:
				op.kind = opArg
			case ir.OpCall:
				op.kind = opClobber
				if !sm.Interproc() {
					continue
				}
				sum := sm.CallSummary(in)
				if sum.Clobber {
					continue
				}
				j, ok := sumIdx[sum]
				if !ok {
					j = len(c.sums)
					sumIdx[sum] = j
					c.sums = append(c.sums, sum)
					// Only single-line spans become named bits; wider spans
					// age as anonymous traffic (one bit per array element
					// would overflow any name table).
					for _, sp := range sum.RefSpans {
						if sp.Lo == sp.Hi {
							seenLine[sp.Lo] = true
						}
					}
				}
				op.kind, op.arg = opSummary, int32(j)
			}
		}
	}

	// Key indices. The function's named blocks come first, then (in
	// interprocedural mode) the callees' global lines, so a call's
	// summarized traffic counts as definitely-distinct named blocks instead
	// of fresh anonymous ones on every call, which is what lets residency
	// bounds survive call-heavy loops. Lines the caller already tracks
	// dedup to the caller's own key (same block, same bit). Blocks past the
	// name table's width are counted as anon.
	for _, k := range c.fs.NamedKeys() {
		c.index(k)
	}
	lines := make([]int64, 0, len(seenLine))
	for l := range seenLine {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, l := range lines {
		c.index(check.GlobalLineKey(l))
	}
	c.named = min(len(c.keyIdx), dataflow.WordBits)
	for i := range c.sites {
		c.sites[i].key = c.index(c.sites[i].info.Key)
	}

	// Sparse-stepping tables. Sites are in program order, so each key's
	// positions come out ascending.
	c.active = make([]int32, n+1)
	for p, op := range c.ops {
		c.active[p+1] = c.active[p]
		if op.kind != opNone {
			c.active[p+1]++
		}
	}
	c.keyOff = make([]int32, len(c.keyIdx)+1)
	for i := range c.sites {
		c.keyOff[c.sites[i].key+1]++
	}
	for k := range len(c.keyIdx) {
		c.keyOff[k+1] += c.keyOff[k]
	}
	next := slices.Clone(c.keyOff)
	c.keyPos = make([]int32, len(c.sites))
	for i := range c.sites {
		s := &c.sites[i]
		c.keyPos[next[s.key]] = int32(c.start[s.block] + s.index)
		next[s.key]++
	}

	// May-target bitsets, one per access signature: two sites with the
	// same (key, uncertainty, alias set) have the same target set.
	c.words = (len(c.keyIdx) + 63) / 64
	tsets := make(map[targetSig]int)
	for i := range c.sites {
		s := &c.sites[i]
		sig := targetSig{key: s.info.Key, uncertain: s.info.Uncertain, set: s.info.AliasSet}
		t, ok := tsets[sig]
		if !ok {
			t = c.targetSet(s.info)
			tsets[sig] = t
		}
		s.tset = t
	}

	c.rels = make([]accessRel, len(c.sites))
	c.relAt = make([]uint32, len(c.sites))
	c.calls = make([]callRel, len(c.sums))
	c.in = make([]achain, len(f.Blocks))
	c.seen = make([]bool, len(f.Blocks))
	return c
}

// index returns the key index of k, assigning the next one on first sight.
func (c *fnCtx) index(k check.SiteKey) int {
	if i, ok := c.keyIdx[k]; ok {
		return i
	}
	i := len(c.keyIdx)
	c.keyIdx[k] = i
	return i
}

// targetSet builds the may-target bitset of an access and returns its
// index, or -1 when the access can only name its own block (mayBe's key
// equality already covers that). Targets outside the key index are never
// the key of a site, so no query can ask for them.
func (c *fnCtx) targetSet(si check.SiteInfo) int {
	targets := c.fs.MayTargets(si)
	if len(targets) == 1 && targets[0] == si.Key {
		return -1
	}
	t := len(c.tbits) / c.words
	c.tbits = append(c.tbits, make([]uint64, c.words)...)
	bits := c.tbits[t*c.words:]
	for _, k := range targets {
		if i, ok := c.keyIdx[k]; ok {
			bits[i/64] |= 1 << (i % 64)
		}
	}
	return t
}

// nameBit is the name-table slot of a key index, -1 past the table.
func (c *fnCtx) nameBit(key int) int {
	if key < c.named {
		return key
	}
	return -1
}

// hasTarget reports whether key index key is in may-target set t.
func (c *fnCtx) hasTarget(t, key int) bool {
	return t >= 0 && c.tbits[t*c.words+key/64]&(1<<(key%64)) != 0
}

// mayBe reports whether either access could name the block the other one
// does.
func (c *fnCtx) mayBe(a, b *siteRef) bool {
	return a.key == b.key || c.hasTarget(a.tset, b.key) || c.hasTarget(b.tset, a.key)
}

// unknownGroups groups the sites the prefilter left unknown by focused
// block, in first-appearance order; each group lists site indices in
// program order, and each grouped site's slot records its place.
func (c *fnCtx) unknownGroups(pre *check.CacheReport) [][]int {
	var groups [][]int
	slot := make(map[int]int) // key index → group
	for i := range c.sites {
		if v, classified := pre.Verdicts[c.sites[i].in.Ref]; !classified || v != check.Unknown {
			continue
		}
		g, ok := slot[c.sites[i].key]
		if !ok {
			g = len(groups)
			slot[c.sites[i].key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
		c.sites[i].slot = len(groups[g])
	}
	return groups
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
			if i, ok := fo.ctx.keyIdx[k]; ok && fo.ctx.nameBit(i) >= 0 {
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
		if fo.lineExact && !fo.k.Uncertain && fo.k.Key.Private() {
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
