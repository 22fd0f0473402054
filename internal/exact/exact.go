// Package exact resolves the must/may analysis's "unknown" class into
// always-hit / always-miss / definitely-unknown by a focused fixed point
// over concrete cache-set states, in the style of Touzeau et al.
// ("Ascertaining Uncertainty for Efficient Exact Cache Analysis", CAV 2017;
// "Fast and exact analysis for LRU caches", POPL 2019): the abstract
// prefilter (check.AnalyzeCache) decides the cheap sites, and only the
// residue is re-analyzed, one focused block at a time, tracking the sets of
// replacement-order valuations that block can actually reach.
//
// The refinement is fully aware of the paper's unified-management
// semantics: bypassed (UmAm) references never allocate but a bypass hit
// refreshes the line's recency, Last-tagged references kill or demote
// resident lines (so a bypass+Last reference definitely leaves its block
// uncached under invalidating dead-marking), and spill stores allocate
// through the cache. Per state the analysis keeps, for the focused block
// since its last refresh: an upper bound on the distinct conflicting blocks
// referenced (names + anon, proving residency under LRU while below the
// associativity, and under any policy while zero), a lower bound on the
// definitely-distinct definitely-same-set blocks brought through the cache
// (dnames, proving eviction under LRU once it reaches the associativity,
// unless a dead-marking kill freed a way in between — "freed"), giving
// always-hit and always-miss theorems the abstract halves cannot reach.
package exact

import (
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// DecidedBy records which stage of the pipeline produced a site's final
// verdict.
type DecidedBy int

// Stages.
const (
	// ByMustMay: the abstract must/may prefilter already decided the site.
	ByMustMay DecidedBy = iota
	// ByExact: the focused exact refinement decided a prefilter-unknown site.
	ByExact
	// ByIrreducible: the prefilter left the site unknown and the refinement
	// did not decide it. Without budget exhaustion the refinement ran to its
	// fixed point, so the uncertainty is real (modulo path feasibility), not
	// analysis slack. When Report.Exhausted is set, the sites of the group
	// the budget ran out in, and of every group after it, were never
	// refined and land here too.
	ByIrreducible
	// ByBypass: the site skips the cache; hit/miss classification does not
	// apply and the refinement leaves it alone.
	ByBypass
)

func (d DecidedBy) String() string {
	switch d {
	case ByMustMay:
		return "must-may"
	case ByExact:
		return "exact"
	case ByIrreducible:
		return "irreducible"
	}
	return "bypass"
}

// SiteVerdict is the final classification of one reference site. It keeps
// the instruction and its block key rather than their renderings; Render
// formats them.
type SiteVerdict struct {
	Func    string
	Block   int
	Index   int // instruction index within the block
	Key     check.SiteKey
	Instr   *ir.Instr
	Verdict check.Verdict
	By      DecidedBy
}

// SolverAntichain names the refinement solver in artifacts that record it
// (the E12 scaling records, the serving daemon's exact tier). It
// represents each focus key's reachable valuations as a subsumption-pruned
// antichain and widens by merging instead of collapsing to top, which
// keeps the exact refinement tractable at progen scale.
const SolverAntichain = "antichain"

// Options bounds the exact solver. The zero value means no step budget.
type Options struct {
	// StepBudget bounds the total number of state-transfer applications
	// across the whole program's refinement; 0 means unlimited. The count
	// is a deterministic function of (program, config) — never
	// wall-clock — so budgeted runs produce byte-identical artifacts.
	// On exhaustion the remaining focus groups degrade to the prefilter
	// verdict (unknown stays irreducible) and Report.Exhausted is set.
	StepBudget int64
}

// Report holds the combined prefilter + refinement result.
type Report struct {
	Config cache.Config
	Pre    *check.CacheReport
	// Verdicts is the final per-site classification: the prefilter's
	// verdict where it decided, the exact one where it refined. The
	// refinement never downgrades — a prefilter hit/miss is final.
	Verdicts map[*ir.MemRef]check.Verdict
	Sites    []SiteVerdict // deterministic program order

	// Summary counts over all classified sites.
	Total, Bypassed     int
	PreHit, PreMiss     int
	ExactHit, ExactMiss int
	Irreducible         int

	// Solver instrumentation: total state-transfer applications, the
	// widest state set/antichain ever held, and whether the step budget
	// ran out (leaving some groups at the prefilter verdict).
	Steps     int64
	PeakWidth int
	Exhausted bool
}

// Analyze runs the prefilter and then the focused refinement on every site
// the prefilter left unknown.
func Analyze(p *ir.Program, ccfg cache.Config, opt check.Options) (*Report, error) {
	return AnalyzeWith(p, ccfg, opt, Options{})
}

// AnalyzeWith is Analyze under a step budget.
func AnalyzeWith(p *ir.Program, ccfg cache.Config, opt check.Options, xopt Options) (*Report, error) {
	return analyze(p, ccfg, opt, xopt, (*focus).solveAntichain)
}

// analyze is AnalyzeWith over a given focused fixed point: fixpoint returns
// the verdict at each site of one focus group, in group order, or nil when
// the step budget ran out.
func analyze(p *ir.Program, ccfg cache.Config, opt check.Options, xopt Options,
	fixpoint func(*focus) []check.Verdict) (*Report, error) {
	sm, err := check.NewSiteModel(p, ccfg, opt)
	if err != nil {
		return nil, err
	}
	pre, err := sm.AnalyzeCache()
	if err != nil {
		return nil, err
	}

	r := &Report{Config: ccfg, Pre: pre,
		Verdicts: make(map[*ir.MemRef]check.Verdict, len(pre.Verdicts))}
	refined := make(map[*ir.MemRef]bool)
	for ref, v := range pre.Verdicts {
		r.Verdicts[ref] = v
	}

	stats := &runStats{budget: xopt.StepBudget, done: opt.Done}

	for _, f := range p.Funcs {
		groups, slot := unknownGroups(sm.Table(f), pre)
		if len(groups) == 0 {
			continue
		}
		ctx := newFnCtx(sm, f, ccfg, slot)
		for _, group := range groups {
			if stats.exhausted {
				break
			}
			verdicts := fixpoint(newFocus(ctx, group, stats))
			for j, v := range verdicts {
				if v != check.Unknown {
					ref := ctx.tab.Sites[group[j]].In.Ref
					r.Verdicts[ref] = v
					refined[ref] = true
				}
			}
		}
	}
	if stats.canceled {
		return nil, &check.CanceledError{Phase: "exact"}
	}
	r.Steps, r.PeakWidth, r.Exhausted = stats.steps, stats.peak, stats.exhausted

	// Per-site report and summary, in program order.
	r.Sites = make([]SiteVerdict, 0, len(pre.Verdicts))
	for _, f := range p.Funcs {
		tab := sm.Table(f)
		for _, st := range tab.Sites {
			in := st.In
			preV, classified := pre.Verdicts[in.Ref]
			if !classified {
				continue // unreachable site: the prefilter skipped it
			}
			v := r.Verdicts[in.Ref]
			var by DecidedBy
			switch {
			case v == check.Bypassed:
				by = ByBypass
				r.Bypassed++
			case refined[in.Ref]:
				by = ByExact
				if v == check.AlwaysHit {
					r.ExactHit++
				} else {
					r.ExactMiss++
				}
			case preV == check.Unknown:
				by = ByIrreducible
				r.Irreducible++
			default:
				by = ByMustMay
				if v == check.AlwaysHit {
					r.PreHit++
				} else {
					r.PreMiss++
				}
			}
			r.Total++
			r.Sites = append(r.Sites, SiteVerdict{
				Func:    f.Name,
				Block:   int(st.Block),
				Index:   int(st.Index),
				Key:     tab.Keys[st.Key],
				Instr:   in,
				Verdict: v,
				By:      by,
			})
		}
	}
	return r, nil
}

// ---- focused state domain ----

// State kinds for the focused block.
const (
	sNC    int8 = iota // definitely not cached
	sMaybe             // no information
	sRes               // resident at its last refresh; counters since then
)

// state is one reachable replacement-order valuation of the focused block.
// It is a comparable value type so state sets can be hashed.
type state struct {
	kind int8
	// names: definitely-distinct named blocks that may conflict with the
	// focus and were referenced since its last refresh (upper-bound side).
	names dataflow.Word
	// dnames ⊆ names: blocks additionally brought *through* the cache, not
	// killed by that access, and definitely mapping to the focus's set
	// (lower-bound side, for eviction proofs under LRU).
	dnames dataflow.Word
	// anon: possibly-conflicting references that cannot be named (address
	// uncertain, or beyond the 64 named-block slots); each counts as a
	// potentially distinct block on the upper-bound side.
	anon uint8
	// freed: some dead-marking kill may have freed or demoted a way in the
	// focus's set since the refresh, so fills can be absorbed without
	// evicting anything — the dnames eviction argument no longer holds.
	freed bool
}

var (
	ncState    = state{kind: sNC}
	maybeState = state{kind: sMaybe}
	resFresh   = state{kind: sRes}
)

// subsumes reports whether keeping only w loses nothing a verdict or a
// transfer could use from s: w is the weaker valuation (larger upper
// bound, smaller lower bound, freed at least as much).
func subsumes(w, s state) bool {
	if w == s {
		return true
	}
	if w.kind == sMaybe {
		return true
	}
	if w.kind != sRes || s.kind != sRes {
		return false
	}
	return w.names.Contains(s.names) && w.anon >= s.anon &&
		s.dnames.Contains(w.dnames) && (w.freed || !s.freed)
}

// ---- focused solver ----

// accessRel is the precomputed relation of one reference site to the
// focused block.
type accessRel struct {
	defFocus bool // definitely the focus block
	mayFocus bool // may be the focus block
	conflict bool // may map to the focus's set
	nameBit  int  // slot in names for the site's key, -1 if unnameable
	mustConf bool // definitely maps to the focus's set
	through  bool // goes through the cache (no bypass, or bypass unhonored)
	killMem  bool // Last + invalidating dead-marking: leaves block uncached
	killRes  bool // Last + any dead-marking: revokes residency protection
}

// runStats aggregates deterministic solver instrumentation across every
// focus group of one AnalyzeWith run. steps counts state-transfer
// applications — a pure function of (program, config), never
// wall-clock — so a budgeted run degrades at exactly the same point every
// time and artifacts stay byte-stable.
type runStats struct {
	steps     int64
	budget    int64 // 0 = unlimited
	exhausted bool
	peak      int // widest state set / antichain ever held

	// Wall-clock cancellation (check.Options.Done): polled every
	// pollEvery charged steps, it rides the exhaustion machinery — the
	// solver already degrades cleanly at any exhaustion point — but is
	// reported as a structured check.CanceledError, never as a report,
	// because where it fired is not deterministic.
	done      <-chan struct{}
	sincePoll int64
	canceled  bool
}

// pollEvery spaces Done polls so the hot transfer loop stays channel-free.
const pollEvery = 1024

func (st *runStats) charge(n int) {
	st.steps += int64(n)
	if st.budget > 0 && st.steps > st.budget {
		st.exhausted = true
	}
	if st.done == nil || st.canceled {
		return
	}
	if st.sincePoll += int64(n); st.sincePoll >= pollEvery {
		st.sincePoll = 0
		select {
		case <-st.done:
			st.canceled = true
			st.exhausted = true
		default:
		}
	}
}

func (st *runStats) width(n int) {
	if n > st.peak {
		st.peak = n
	}
}

// focus is one focus group's view of its function: the focused site and,
// in buffers the fnCtx owns, what is the focus's own — one accessRel per
// site and one callRel per distinct call summary.
type focus struct {
	ctx       *fnCtx
	site      *check.Site // the focused block's first unknown site
	key       check.SiteKey
	cfg       cache.Config
	mustOK    bool // LRU: age reasoning and eviction proofs are sound
	lineExact bool // one-word lines: distinct blocks are distinct lines
	cold      bool
	group     []int   // the group's site indices, sampled in this order
	keyPos    []int32 // the focus key's access positions, ascending
	stats     *runStats
}

// newFocus relates every call summary of the function to the group's
// focused block; sites are related on first use (rel). It reuses the
// fnCtx's buffers, so at most one focus of a function is live at a time.
func newFocus(ctx *fnCtx, group []int, stats *runStats) *focus {
	site := &ctx.tab.Sites[group[0]]
	fo := &focus{
		ctx:       ctx,
		site:      site,
		key:       ctx.tab.Keys[site.Key],
		cfg:       ctx.cfg,
		mustOK:    ctx.sm.MustHalf(),
		lineExact: ctx.cfg.LineWords == 1,
		group:     group,
		keyPos:    ctx.keyPos[ctx.keyOff[site.Key]:ctx.keyOff[site.Key+1]],
		stats:     stats,
	}
	// A cold entry only stays cold at the machine level when lines are one
	// word: wider lines let prologue traffic fetch neighbors of the focus.
	fo.cold = ctx.sm.ColdEntry(ctx.f) && fo.lineExact
	ctx.epoch++
	for i, sum := range ctx.tab.Sums {
		ctx.calls[i] = fo.relateCall(sum)
	}
	return fo
}

// sampled returns the group index of the site at position pos, or -1 when
// the focus group does not sample it.
func (fo *focus) sampled(pos int) int {
	op := fo.ctx.tab.Ops[pos]
	if op.Kind != check.OpAccess {
		return -1
	}
	slot := fo.ctx.slot[op.Arg]
	if slot == 0 || fo.ctx.tab.Sites[op.Arg].Key != fo.site.Key {
		return -1
	}
	return int(slot - 1)
}

// rel returns site i's relation to the focused block, relating it on the
// focus's first use. A focus usually reaches few of its function's sites:
// the solver skips top stretches without transferring them.
func (fo *focus) rel(i int32) *accessRel {
	c := fo.ctx
	if c.relAt[i] != c.epoch {
		c.rels[i] = fo.relate(&c.tab.Sites[i])
		c.relAt[i] = c.epoch
	}
	return &c.rels[i]
}

func (fo *focus) relate(st *check.Site) accessRel {
	rel := accessRel{
		defFocus: st.Key == fo.site.Key,
		through:  !st.Bypass || !fo.cfg.HonorBypass,
		killMem:  st.Last && fo.cfg.DeadKillsMembership(),
		killRes:  st.Last && fo.cfg.DeadKillsResidency(),
		nameBit:  -1,
	}
	rel.mayFocus = rel.defFocus || fo.ctx.mayBe(st, fo.site)
	if !st.Uncertain && !fo.site.Uncertain {
		key := fo.ctx.tab.Keys[st.Key]
		rel.conflict = fo.ctx.tab.MayConflict(key, fo.key)
		rel.mustConf = fo.ctx.tab.MustConflict(key, fo.key)
	} else {
		rel.conflict = true
	}
	if !st.Uncertain && !rel.defFocus {
		rel.nameBit = fo.ctx.nameBit(st.Key)
	}
	return rel
}

func (fo *focus) count(s state) int { return s.names.Count() + int(s.anon) }

// residencyGuaranteed: under LRU the focus is resident while fewer than
// Ways possibly-conflicting blocks were referenced since its refresh (dead
// or invalid lines only absorb fills, they never force the focus out).
// Under FIFO/Random/MIN only the absence of any possibly-conflicting fill
// proves residency — nothing entered the set, so nothing was evicted.
func (fo *focus) residencyGuaranteed(s state) bool {
	if s.kind != sRes {
		return false
	}
	if fo.mustOK {
		return fo.count(s) < fo.cfg.Ways
	}
	return fo.count(s) == 0
}

// normalize applies the eviction proof and collapses informationless
// valuations.
func (fo *focus) normalize(s state) state {
	if s.kind != sRes {
		return s
	}
	// Ways definitely-distinct same-set blocks came through the cache with
	// no way freed in between: by the LRU stack argument they co-reside
	// and are all younger than the focus, which therefore was evicted.
	if fo.mustOK && !s.freed && s.dnames.Count() >= fo.cfg.Ways {
		return ncState
	}
	hitDead := fo.count(s) > 0
	if fo.mustOK {
		hitDead = fo.count(s) >= fo.cfg.Ways
	}
	missDead := !fo.mustOK || s.freed
	if hitDead && missDead {
		return maybeState
	}
	return s
}

// transfer appends to dst the states one input state maps to through the
// instruction at a position of kind op.
func (fo *focus) transfer(dst []state, op check.InstrOp, s state) []state {
	switch op.Kind {
	case check.OpAccess:
		return fo.transferAccess(dst, fo.rel(op.Arg), s)
	case check.OpSummary:
		return append(dst, fo.callSummaryState(&fo.ctx.calls[op.Arg], s))
	case check.OpClobber:
		return append(dst, fo.callState(s))
	case check.OpArg:
		return append(dst, fo.argState(s))
	}
	return append(dst, s)
}

// caseFocus transfers an access that (on this branch) definitely touches
// the focus block.
func (fo *focus) caseFocus(dst []state, rel *accessRel, s state) []state {
	// Result when the block is resident at the access: the reference hits,
	// refreshes, and then dead-marking applies.
	onHit := resFresh
	switch {
	case rel.killMem:
		onHit = ncState
	case rel.killRes:
		onHit = maybeState // demoted: cached, but preferred victim
	}
	if rel.through {
		// Hit or fill: resident (counters reset), then dead-marking.
		return append(dst, onHit)
	}
	// Bypass: a hit refreshes (and possibly kills) the line; a miss reads
	// memory and allocates nothing.
	switch s.kind {
	case sNC:
		return append(dst, ncState)
	case sRes:
		if fo.residencyGuaranteed(s) {
			return append(dst, onHit)
		}
		return append(dst, onHit, ncState)
	default:
		if onHit == maybeState {
			return append(dst, maybeState)
		}
		// Note bypass+Last under invalidating dead-marking: resident or
		// not, the block is definitely uncached afterwards.
		return append(dst, onHit, ncState)
	}
}

// caseOther transfers an access that (on this branch) touches some block
// other than the focus but may map to its set.
func (fo *focus) caseOther(rel *accessRel, s state) state {
	if s.kind != sRes {
		if s.kind == sNC && rel.through && !fo.lineExact {
			// A wider line fetched for a neighbor may carry the focus.
			return maybeState
		}
		return s
	}
	if rel.through && !fo.lineExact {
		return maybeState
	}
	ns := s
	// LRU order is disturbed by any reference that may touch the set (a
	// bypass hit refreshes the line's recency); FIFO/Random/MIN order only
	// changes on fills, so bypass references cannot age the focus there.
	if rel.through || fo.mustOK {
		if rel.nameBit >= 0 {
			ns.names = ns.names.With(rel.nameBit)
			if fo.mustOK && rel.through && !rel.killRes && rel.mustConf {
				ns.dnames = ns.dnames.With(rel.nameBit)
			}
		} else if ns.anon < 255 {
			ns.anon++
		}
	}
	if rel.killRes {
		ns.freed = true
	}
	return fo.normalize(ns)
}

// transferAccess appends to dst the states one input state maps to
// through a reference site.
func (fo *focus) transferAccess(dst []state, rel *accessRel, s state) []state {
	if !rel.mayFocus {
		if !rel.conflict {
			return append(dst, s)
		}
		return append(dst, fo.caseOther(rel, s))
	}
	if rel.defFocus {
		return fo.caseFocus(dst, rel, s)
	}
	// May or may not be the focus: both branches are reachable.
	return append(fo.caseFocus(dst, rel, s), fo.caseOther(rel, s))
}

// callState models an OpCall: callee references may fill, refresh and kill
// arbitrarily. Only a definitely-uncached compiler-private block is safe —
// with one-word lines no callee can fetch or name it.
func (fo *focus) callState(s state) state {
	if s.kind == sNC && fo.lineExact && !fo.site.Uncertain && fo.key.Private() {
		return s
	}
	return maybeState
}

// argState models an OpArg: staging an argument beyond the register window
// stores through the cache into the outgoing-args frame area — a word that
// is definitely not the focus block (the area is never address-taken and
// distinct from every named frame offset) but may conflict with it.
func (fo *focus) argState(s state) state {
	switch {
	case s.kind == sRes && fo.lineExact:
		ns := s
		if ns.anon < 255 {
			ns.anon++
		}
		return fo.normalize(ns)
	case s.kind != sMaybe && !fo.lineExact:
		return maybeState
	}
	return s
}

// stateVote folds one state into a hit/miss vote; false means the state is
// neither definitely-resident nor definitely-uncached, so no verdict.
func (fo *focus) stateVote(s state, hit, miss *bool) bool {
	switch {
	case s.kind == sNC:
		*hit = false
	case fo.residencyGuaranteed(s):
		*miss = false
	default:
		return false
	}
	return true
}

func voteVerdict(hit, miss bool) check.Verdict {
	switch {
	case hit:
		return check.AlwaysHit
	case miss:
		return check.AlwaysMiss
	}
	return check.Unknown
}
