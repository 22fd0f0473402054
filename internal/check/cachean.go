package check

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/sem"
)

// Verdict is the static cache classification of one reference site, in
// the style of Touzeau et al.'s exact LRU analyses: a definite verdict is
// a theorem about every execution of the site, checkable against any
// simulator trace (see Differential).
type Verdict int

// Verdicts.
const (
	// Unknown: the analysis cannot prove hit or miss.
	Unknown Verdict = iota
	// AlwaysHit: every dynamic execution of the site hits in the cache.
	AlwaysHit
	// AlwaysMiss: every dynamic execution of the site misses.
	AlwaysMiss
	// Bypassed: the site skips the cache (UmAm flavor with bypass
	// honored); hit/miss classification does not apply.
	Bypassed
)

func (v Verdict) String() string {
	switch v {
	case AlwaysHit:
		return "always-hit"
	case AlwaysMiss:
		return "always-miss"
	case Bypassed:
		return "bypass"
	}
	return "unknown"
}

// CacheReport holds the per-site verdicts of one analysis run.
type CacheReport struct {
	Config   cache.Config
	Verdicts map[*ir.MemRef]Verdict

	// MustHalf records whether the must (always-hit) half actually ran:
	// age bounds are only sound under LRU, so for FIFO/Random/MIN the
	// analysis is may-only and can never produce an always-hit verdict.
	MustHalf bool

	Hit, Miss, Unk, Byp int // verdict counts over all sites
}

// Halves names the analysis halves that ran, for report headers.
func (r *CacheReport) Halves() string {
	if r.MustHalf {
		return "must+may"
	}
	return fmt.Sprintf("may-only: no always-hit under %s", r.Config.Policy)
}

func (r *CacheReport) count() {
	r.Hit, r.Miss, r.Unk, r.Byp = 0, 0, 0, 0
	for _, v := range r.Verdicts {
		switch v {
		case AlwaysHit:
			r.Hit++
		case AlwaysMiss:
			r.Miss++
		case Bypassed:
			r.Byp++
		default:
			r.Unk++
		}
	}
}

// Summary renders one line of verdict counts.
func (r *CacheReport) Summary() string {
	return fmt.Sprintf("%d always-hit, %d always-miss, %d unknown, %d bypass",
		r.Hit, r.Miss, r.Unk, r.Byp)
}

// Report renders per-function verdicts for every classified site.
func (r *CacheReport) Report(p *ir.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cache analysis (%d sets x %d ways, line %d, %s; %s): %s\n",
		r.Config.Sets, r.Config.Ways, r.Config.LineWords, r.Config.Policy, r.Halves(), r.Summary())
	for _, f := range p.Funcs {
		var lines []string
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Ref == nil {
					continue
				}
				if v, ok := r.Verdicts[in.Ref]; ok && v != Bypassed {
					lines = append(lines, fmt.Sprintf("  b%d i%d %-11s %s", b.ID, i, v, in.String()))
				}
			}
		}
		if len(lines) > 0 {
			fmt.Fprintf(&sb, "func %s:\n%s\n", f.Name, strings.Join(lines, "\n"))
		}
	}
	return sb.String()
}

// ---- abstract memory blocks ----

// Key kinds. A block is one cache line's worth of memory with a static
// identity: a global line (absolute address known at compile time — the
// layout is the one irinterp and codegen share, globals from address 64
// in declaration order), a frame scalar or spill slot (offset within the
// activation frame known, absolute address not), or a pseudo-block: the
// line addressed by a virtual register between two definitions of that
// register (the symbolic names of Touzeau et al.'s focused accesses).
const (
	kGlobal = iota
	kFrame
	kSpill
	kPseudo
)

type blockKey struct {
	kind int8
	line int64       // kGlobal: absolute line number
	obj  *sem.Object // kFrame
	slot int         // kSpill
	reg  ir.Reg      // kPseudo
}

func (k blockKey) String() string {
	switch k.kind {
	case kGlobal:
		return fmt.Sprintf("line%d", k.line)
	case kFrame:
		return "frame:" + k.obj.Name
	case kSpill:
		return fmt.Sprintf("slot%d", k.slot)
	}
	return fmt.Sprintf("[%s]", k.reg)
}

// GlobalBase mirrors the shared global layout base of irinterp and
// codegen; the three must agree for line numbers to be meaningful.
const globalBase int64 = 64

// ---- analysis ----

// AnalyzeCache classifies every load/store site of the program as
// always-hit / always-miss / unknown / bypassed under the given cache
// configuration, by abstract interpretation over per-set LRU age vectors:
//
//   - The must analysis keeps an upper bound on each block's age (the
//     number of distinct conflicting lines touched since the block's last
//     access); a bound below the associativity proves residence, hence
//     always-hit. Joins take the pointwise maximum. Age bounds are only
//     maintained under LRU — for FIFO/Random the must half is disabled
//     and no always-hit verdicts are produced.
//   - The may analysis keeps the set of blocks possibly in cache; a block
//     provably absent proves always-miss. Blocks enter on any access that
//     may touch them, resolved by alias set in both directions: an
//     address-uncertain reference may fill any block of its set, and a
//     named fill also fills every pseudo-block that may address it. They
//     leave only on a definite kill: a Last-tagged access to the block
//     under invalidating dead-marking with one-word lines. Eviction never
//     removes a block (sound for every policy).
//
// Both halves model the paper's control bits: a bypass reference
// allocates nothing but may refresh or (when Last-tagged) kill a resident
// line; calls clear the must state and make everything a callee could
// touch possibly-cached (spill slots and non-address-taken frame words
// are compiler-private and survive, given one-word lines).
//
// The verdicts assume well-defined MC programs (no out-of-bounds
// indexing) and trust the alias sets; Differential cross-validates both
// against the production cache model.
func AnalyzeCache(p *ir.Program, ccfg cache.Config, opt Options) (*CacheReport, error) {
	a, err := newAnalyzer(p, ccfg, opt)
	if err != nil {
		return nil, err
	}

	rep := &CacheReport{Config: ccfg, Verdicts: make(map[*ir.MemRef]Verdict), MustHalf: a.mustOK}
	for _, f := range p.Funcs {
		a.analyzeFunc(f, rep)
		if canceled(opt.Done) {
			// All-or-nothing: a partial verdict map must never escape as
			// if it were the fixpoint.
			return nil, &CanceledError{Phase: "cachean"}
		}
	}
	rep.count()
	return rep, nil
}

// newAnalyzer validates the configuration and precomputes the program-wide
// facts both AnalyzeCache and the exact refinement's SiteModel rely on:
// absolute lines of one-word globals and whether main is ever re-entered.
func newAnalyzer(p *ir.Program, ccfg cache.Config, opt Options) (*analyzer, error) {
	probe := ccfg
	if probe.Policy == cache.MIN {
		probe.Policy = cache.LRU
	}
	if err := probe.Validate(); err != nil {
		return nil, err
	}

	a := &analyzer{
		cfg:         ccfg,
		opt:         opt,
		mustOK:      ccfg.Policy == cache.LRU,
		globalLine:  make(map[*sem.Object]int64),
		globalStart: make(map[*sem.Object]int64),
		funcByName:  make(map[string]*ir.Func, len(p.Funcs)),
		fss:         make(map[*ir.Func]*funcState, len(p.Funcs)),
		summaries:   make(map[*ir.Func]*CallSummary),
		onStack:     make(map[*ir.Func]bool),
	}
	next := globalBase
	for _, g := range p.Globals {
		a.globalStart[g] = next
		if g.Type.Words() == 1 {
			a.globalLine[g] = next / int64(ccfg.LineWords)
		}
		next += int64(g.Type.Words())
	}
	for _, f := range p.Funcs {
		a.funcByName[f.Name] = f
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if in := &b.Instrs[i]; in.Op == ir.OpCall && in.Callee != nil && in.Callee.Name == "main" {
					a.mainCalled = true
				}
			}
		}
	}
	return a, nil
}

type analyzer struct {
	cfg         cache.Config
	opt         Options
	mustOK      bool
	globalLine  map[*sem.Object]int64
	globalStart map[*sem.Object]int64 // first word address of every global
	funcByName  map[string]*ir.Func
	mainCalled  bool

	fss       map[*ir.Func]*funcState   // shared per-function key universes
	summaries map[*ir.Func]*CallSummary // memoized transitive call effects
	onStack   map[*ir.Func]bool         // summary-DFS cycle detection
}

// funcState returns the (cached) per-function key universe. Both the
// prefilter, the summary builder and the exact refinement's SiteModel walk
// the same functions, so the universes are built once per analyzer.
func (a *analyzer) funcState(f *ir.Func) *funcState {
	if fs, ok := a.fss[f]; ok {
		return fs
	}
	fs := a.newFuncState(f)
	a.fss[f] = fs
	return fs
}

func (a *analyzer) killsMust() bool { return a.cfg.DeadKillsResidency() }
func (a *analyzer) killsMay() bool  { return a.cfg.DeadKillsMembership() }

// access is one resolved reference site.
type access struct {
	key       blockKey
	uncertain bool // address not a fixed named location
	set       int  // alias set of the reference
	bypass    bool
	last      bool
}

// funcState carries the per-function universe of keys.
type funcState struct {
	a        *analyzer
	f        *ir.Func
	frameOff map[*sem.Object]int64
	isPseudo map[ir.Reg]bool
	allKeys  []blockKey
	bySet    map[int][]blockKey // named keys by object alias set
	// namedBy lists, per named key, the pseudo-blocks whose register may
	// address that key's line (the converse of mayTargets).
	namedBy map[blockKey][]blockKey
}

func (a *analyzer) newFuncState(f *ir.Func) *funcState {
	fs := &funcState{a: a, f: f,
		frameOff: make(map[*sem.Object]int64),
		isPseudo: make(map[ir.Reg]bool),
		bySet:    make(map[int][]blockKey),
		namedBy:  make(map[blockKey][]blockKey),
	}
	// Frame layout, mirroring irinterp: spill slots first, then frame
	// objects in declaration order.
	off := int64(f.SpillSlots)
	for _, obj := range f.FrameObjs {
		fs.frameOff[obj] = off
		off += int64(obj.Type.Words())
	}
	seen := make(map[blockKey]bool)
	add := func(k blockKey, set int) {
		if !seen[k] {
			seen[k] = true
			fs.allKeys = append(fs.allKeys, k)
		}
		if set >= 0 && (k.kind == kGlobal || k.kind == kFrame) {
			for _, e := range fs.bySet[set] {
				if e == k {
					return
				}
			}
			fs.bySet[set] = append(fs.bySet[set], k)
		}
	}
	var pseudoAccs []access
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Ref == nil {
				continue
			}
			acc := fs.resolve(in)
			if acc.key.kind == kPseudo {
				fs.isPseudo[acc.key.reg] = true
				pseudoAccs = append(pseudoAccs, acc)
			}
			add(acc.key, acc.set)
		}
	}
	// With wider lines every through access already reaches every block,
	// so namedBy is needed for one-word lines only.
	if a.cfg.LineWords == 1 {
		for _, acc := range pseudoAccs {
			for _, t := range fs.mayTargets(acc) {
				if t.kind != kPseudo && !slices.Contains(fs.namedBy[t], acc.key) {
					fs.namedBy[t] = append(fs.namedBy[t], acc.key)
				}
			}
		}
	}
	return fs
}

// resolve maps a load/store instruction to its abstract block.
func (fs *funcState) resolve(in *ir.Instr) access {
	ref := in.Ref
	acc := access{set: ref.AliasSet, bypass: ref.Bypass, last: ref.Last}
	switch {
	case ref.Kind == ir.RefSpill:
		acc.key = blockKey{kind: kSpill, slot: ref.Slot}
	case ref.Obj != nil && ref.Obj.Type.Words() == 1 &&
		(ref.Kind == ir.RefScalar || ref.Kind == ir.RefPointer):
		// A named scalar (or a pointer dereference the alias analysis
		// resolved to a single scalar target): identity is certain even
		// when other names may alias the object.
		if line, ok := fs.a.globalLine[ref.Obj]; ok {
			acc.key = blockKey{kind: kGlobal, line: line}
		} else {
			acc.key = blockKey{kind: kFrame, obj: ref.Obj}
		}
	default:
		// Array elements and unresolved pointer dereferences: the line is
		// whatever the address register holds.
		acc.key = blockKey{kind: kPseudo, reg: in.A}
		acc.uncertain = true
	}
	return acc
}

// conflict reports whether two distinct blocks may map to the same cache
// set. Global lines have known sets; frame-class blocks of the same
// activation have known set *deltas* when lines are one word (their
// absolute base is unknown but shared); everything else may conflict.
func (fs *funcState) conflict(x, y blockKey) bool {
	sets := int64(fs.a.cfg.Sets)
	if x.kind == kGlobal && y.kind == kGlobal {
		return x.line%sets == y.line%sets
	}
	if fs.a.cfg.LineWords != 1 {
		return true
	}
	xo, xok := fs.frameClassOff(x)
	yo, yok := fs.frameClassOff(y)
	if xok && yok {
		return (xo-yo)%sets == 0
	}
	return true
}

func (fs *funcState) frameClassOff(k blockKey) (int64, bool) {
	switch k.kind {
	case kSpill:
		return int64(k.slot), true
	case kFrame:
		off, ok := fs.frameOff[k.obj]
		return off, ok
	}
	return 0, false
}

// ---- abstract states ----

type mustState map[blockKey]int

type mayState struct {
	in      map[blockKey]bool
	unknown bool // some line we cannot name may be cached
}

func (m mustState) clone() mustState {
	c := make(mustState, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func (m mayState) clone() mayState {
	c := mayState{in: make(map[blockKey]bool, len(m.in)), unknown: m.unknown}
	for k := range m.in {
		c.in[k] = true
	}
	return c
}

// joinMust intersects keys, taking the maximum (worst) age. Reports change.
func joinMust(dst mustState, src mustState) (mustState, bool) {
	changed := false
	for k, v := range dst {
		sv, ok := src[k]
		if !ok {
			delete(dst, k)
			changed = true
		} else if sv > v {
			dst[k] = sv
			changed = true
		}
	}
	return dst, changed
}

// joinMay unions membership. Reports change.
func (m *mayState) join(src mayState) bool {
	changed := false
	for k := range src.in {
		if !m.in[k] {
			m.in[k] = true
			changed = true
		}
	}
	if src.unknown && !m.unknown {
		m.unknown = true
		changed = true
	}
	return changed
}

// ---- transfer ----

// anyCached reports whether the cache may hold anything at all.
func (m *mayState) anyCached() bool { return m.unknown || len(m.in) > 0 }

func (fs *funcState) transferInstr(in *ir.Instr, must mustState, may *mayState) {
	a := fs.a
	switch {
	case in.Op == ir.OpCall:
		if a.opt.Interproc {
			if s := a.callSummary(in.Callee); !s.Clobber {
				fs.transferCallSummary(s, must, may)
				break
			}
		}
		// Blanket clobber: a callee may touch globals, anything reachable
		// through a pointer (address-taken frame objects), and lines named
		// by pseudo-blocks; with one-word lines it can never fetch this
		// frame's compiler-private words.
		for k := range must {
			delete(must, k)
		}
		coarse := a.cfg.LineWords != 1
		for _, k := range fs.allKeys {
			switch {
			case coarse:
				may.in[k] = true
			case k.kind == kSpill:
			case k.kind == kFrame && !k.obj.AddrTaken:
			default:
				may.in[k] = true
			}
		}
		may.unknown = true

	case in.Ref != nil && (in.Op == ir.OpLoad || in.Op == ir.OpStore):
		fs.transferAccess(fs.resolve(in), must, may)
	}

	// Redefining a register retires its pseudo-block: the old line loses
	// its name (but may still be cached), and the register's new value
	// may address any line the cache could be holding.
	if d := in.Def(); d != ir.NoReg && fs.isPseudo[d] {
		k := blockKey{kind: kPseudo, reg: d}
		delete(must, k)
		if may.in[k] {
			may.unknown = true
		}
		if may.anyCached() {
			may.in[k] = true
		} else {
			delete(may.in, k)
		}
	}
}

func (fs *funcState) transferAccess(acc access, must mustState, may *mayState) {
	a := fs.a
	through := !acc.bypass || !a.cfg.HonorBypass
	k := acc.key

	// Must half: age conflicting blocks younger than the target, then
	// refresh the target. A bypass reference allocates nothing, but a
	// bypass hit refreshes the line, so aging applies either way.
	if a.mustOK {
		ageC, resident := must[k]
		if !resident {
			ageC = a.cfg.Ways // acts as infinity: stored ages are < Ways
		}
		for b, ab := range must {
			if b == k || ab >= ageC || !fs.conflict(b, k) {
				continue
			}
			if ab+1 >= a.cfg.Ways {
				delete(must, b)
			} else {
				must[b] = ab + 1
			}
		}
		switch {
		case acc.last && a.killsMust():
			delete(must, k) // dead-marked: invalidated or demoted to victim
		case through:
			must[k] = 0 // fetched or refreshed: resident afterwards
		case resident:
			must[k] = 0 // bypass hit on a guaranteed-resident line
		}
	}

	// May half. A named line coming in is also the line of every
	// pseudo-block whose register may address it.
	if through {
		for _, t := range fs.mayTargets(acc) {
			may.in[t] = true
		}
		for _, p := range fs.namedBy[k] {
			may.in[p] = true
		}
	}
	if acc.last && a.killsMay() {
		// The access definitely leaves the target line uncached: killed
		// if it was resident, not allocated if it was not.
		delete(may.in, k)
	}
}

// mayTargets returns the blocks a through-cache access may bring into the
// cache.
func (fs *funcState) mayTargets(acc access) []blockKey {
	if fs.a.cfg.LineWords != 1 {
		// Lines may span objects (and frames): any access may fetch any
		// tracked block's line.
		return fs.allKeys
	}
	if !acc.uncertain {
		return []blockKey{acc.key}
	}
	// Address-uncertain: the target may be any object of the reference's
	// alias set, plus any line another pseudo-block names.
	out := []blockKey{acc.key}
	for _, k := range fs.allKeys {
		switch k.kind {
		case kPseudo:
			out = append(out, k)
		case kGlobal, kFrame:
			if acc.set < 0 {
				// Unresolved base: may reach any address-taken object.
				if k.kind == kGlobal || k.obj.AddrTaken {
					out = append(out, k)
				}
			}
		}
	}
	if acc.set >= 0 {
		out = append(out, fs.bySet[acc.set]...)
	}
	return out
}

// ---- fixpoint ----

func (a *analyzer) analyzeFunc(f *ir.Func, rep *CacheReport) {
	fs := a.funcState(f)
	nb := len(f.Blocks)
	inMust := make([]mustState, nb)
	inMay := make([]mayState, nb)
	seen := make([]bool, nb)

	entry := f.Entry().ID
	inMust[entry] = mustState{}
	cold := f.Name == "main" && !a.mainCalled
	em := mayState{in: make(map[blockKey]bool)}
	if !cold {
		for _, k := range fs.allKeys {
			em.in[k] = true
		}
		em.unknown = true
	}
	inMay[entry] = em
	seen[entry] = true

	rpo := cfg.ReversePostorder(f)
	for changed := true; changed; {
		if canceled(a.opt.Done) {
			return // AnalyzeCache converts the abandonment into CanceledError
		}
		changed = false
		for _, b := range rpo {
			if !seen[b.ID] {
				continue
			}
			must := inMust[b.ID].clone()
			may := inMay[b.ID].clone()
			for i := range b.Instrs {
				fs.transferInstr(&b.Instrs[i], must, &may)
			}
			for _, s := range b.Succs {
				if !seen[s.ID] {
					seen[s.ID] = true
					inMust[s.ID] = must.clone()
					inMay[s.ID] = may.clone()
					changed = true
					continue
				}
				var ch1 bool
				inMust[s.ID], ch1 = joinMust(inMust[s.ID], must)
				ch2 := inMay[s.ID].join(may)
				changed = changed || ch1 || ch2
			}
		}
	}

	// Final pass: record verdicts from the stable in-states.
	for _, b := range f.Blocks {
		if !seen[b.ID] {
			continue
		}
		must := inMust[b.ID].clone()
		may := inMay[b.ID].clone()
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Ref != nil && (in.Op == ir.OpLoad || in.Op == ir.OpStore) {
				acc := fs.resolve(in)
				rep.Verdicts[in.Ref] = fs.verdict(acc, must, &may)
			}
			fs.transferInstr(in, must, &may)
		}
	}
}

func (fs *funcState) verdict(acc access, must mustState, may *mayState) Verdict {
	if acc.bypass && fs.a.cfg.HonorBypass {
		return Bypassed
	}
	if _, ok := must[acc.key]; ok {
		return AlwaysHit
	}
	if !may.in[acc.key] {
		return AlwaysMiss
	}
	return Unknown
}

// sortedKeys is a test/debug helper rendering a must state deterministically.
func (m mustState) String() string {
	var parts []string
	for k, v := range m {
		parts = append(parts, fmt.Sprintf("%s:%d", k, v))
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, " ") + "}"
}
