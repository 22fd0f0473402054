package check

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cache"
	"repro/internal/dataflow"
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
	m, err := NewSiteModel(p, ccfg, opt)
	if err != nil {
		return nil, err
	}
	return m.AnalyzeCache()
}

// AnalyzeCache runs the must/may analysis (see the package-level
// AnalyzeCache) over the model's program. It shares the model's
// per-function key universes and call summaries, so a caller that needs
// both the prefilter verdicts and the site model builds them once.
func (m *SiteModel) AnalyzeCache() (*CacheReport, error) {
	a := m.a
	rep := &CacheReport{Config: a.cfg, Verdicts: make(map[*ir.MemRef]Verdict), MustHalf: a.mustOK}
	for _, f := range a.prog.Funcs {
		if p := a.newPrefilter(f); p.solve() {
			p.record(rep)
		}
		if canceled(a.opt.Done) {
			// All-or-nothing: a partial verdict map must never escape as
			// if it were the fixpoint.
			return nil, &CanceledError{Phase: "cachean"}
		}
	}
	rep.count()
	return rep, nil
}

// newAnalyzer validates the configuration and precomputes the program-wide
// facts both the prefilter and the exact refinement's SiteModel rely on:
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
		prog:        p,
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
	prog        *ir.Program
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

// coldEntry reports whether f is entered with a definitely-empty cache:
// only main, and only when nothing ever calls main again.
func (a *analyzer) coldEntry(f *ir.Func) bool { return f.Name == "main" && !a.mainCalled }

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

// isSite reports whether in is a classified reference site.
func isSite(in *ir.Instr) bool {
	return in.Ref != nil && (in.Op == ir.OpLoad || in.Op == ir.OpStore)
}

// funcState carries the per-function universe of site keys: the named
// blocks in discovery order, then the pseudo-blocks. A key's position in
// allKeys is its keyIdx; the function's table (tab, built on first use)
// numbers its keys the same way, with the summarized lines inserted
// between the two groups (FuncTable.KeyIndex).
type funcState struct {
	a        *analyzer
	f        *ir.Func
	frameOff map[*sem.Object]int64
	allKeys  []blockKey
	keyIdx   map[blockKey]int
	named    int                // allKeys[:named] are the named blocks
	sites    int                // number of reference sites
	bySet    map[int][]blockKey // named keys by object alias set
	// namedBy lists, per named key, the pseudo-blocks whose register may
	// address that key's line (the converse of mayTargets).
	namedBy map[blockKey][]blockKey
	tab     *FuncTable
}

func (a *analyzer) newFuncState(f *ir.Func) *funcState {
	fs := &funcState{a: a, f: f,
		frameOff: make(map[*sem.Object]int64),
		keyIdx:   make(map[blockKey]int),
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
	npseudo := 0
	add := func(k blockKey, set int) {
		if _, ok := fs.keyIdx[k]; !ok {
			if k.kind == kPseudo {
				fs.keyIdx[k] = -1 // numbered after every named key below
				npseudo++
			} else {
				fs.keyIdx[k] = len(fs.allKeys)
				fs.allKeys = append(fs.allKeys, k)
			}
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
			if !isSite(in) {
				continue
			}
			fs.sites++
			acc := fs.resolve(in)
			if acc.key.kind == kPseudo {
				pseudoAccs = append(pseudoAccs, acc)
			}
			add(acc.key, acc.set)
		}
	}
	fs.named = len(fs.allKeys)
	fs.allKeys = slices.Grow(fs.allKeys, npseudo)
	for _, acc := range pseudoAccs {
		if fs.keyIdx[acc.key] < 0 {
			fs.keyIdx[acc.key] = len(fs.allKeys)
			fs.allKeys = append(fs.allKeys, acc.key)
		}
	}
	// With wider lines every through access already reaches every block,
	// so namedBy is needed for one-word lines only. A pseudo-block's
	// targets depend on its access's alias set alone, so they are listed
	// once per alias set.
	if a.cfg.LineWords == 1 {
		var sets []int
		pseudoBySet := make(map[int][]blockKey)
		for _, acc := range pseudoAccs {
			ps, ok := pseudoBySet[acc.set]
			if !ok {
				sets = append(sets, acc.set)
			}
			if !slices.Contains(ps, acc.key) {
				pseudoBySet[acc.set] = append(ps, acc.key)
			}
		}
		for _, set := range sets {
			ps := pseudoBySet[set]
			for _, t := range fs.mayTargets(access{key: ps[0], uncertain: true, set: set}) {
				if t.kind == kPseudo {
					continue
				}
				for _, p := range ps {
					if !slices.Contains(fs.namedBy[t], p) {
						fs.namedBy[t] = append(fs.namedBy[t], p)
					}
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

// Set classes: how much is known of the cache set a block maps to.
const (
	setAbsolute = iota // a global line: its set is known
	setFrame           // a frame-class block: its set relative to the frame base is known
	setUnknown
)

// setClass is the cache-set fact of one block. Global lines have known
// sets; frame-class blocks (spill slots and this activation's frame
// objects) have known set *deltas* when lines are one word (their
// absolute base is unknown but shared); nothing is known of the rest.
type setClass struct {
	class int8
	set   int64 // the set, absolute or frame-relative; 0 when unknown
}

func (fs *funcState) setClassOf(k blockKey) setClass {
	sets := int64(fs.a.cfg.Sets)
	mod := func(v int64) int64 { return (v%sets + sets) % sets }
	switch {
	case k.kind == kGlobal:
		return setClass{setAbsolute, mod(k.line)}
	case fs.a.cfg.LineWords != 1:
	case k.kind == kSpill:
		return setClass{setFrame, mod(int64(k.slot))}
	case k.kind == kFrame:
		if off, ok := fs.frameOff[k.obj]; ok {
			return setClass{setFrame, mod(off)}
		}
	}
	return setClass{class: setUnknown}
}

// mayConflict reports whether two distinct blocks may map to the same
// cache set: unless both sets are known, in the same frame of reference,
// and differ.
func (x setClass) mayConflict(y setClass) bool {
	return x.class == setUnknown || x.class != y.class || x.set == y.set
}

// mustConflict reports whether two blocks definitely map to the same set.
func (x setClass) mustConflict(y setClass) bool {
	return x.class != setUnknown && x.class == y.class && x.set == y.set
}

// conflict reports whether two distinct blocks may map to the same cache
// set.
func (fs *funcState) conflict(x, y blockKey) bool {
	return fs.setClassOf(x).mayConflict(fs.setClassOf(y))
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

// ---- abstract states ----

// ageEntry is one must fact: the block with key index key is resident
// with an age of at most age.
type ageEntry struct {
	key, age int32
}

// cacheState is one abstract cache state over a function's key indices.
// must lists the provably resident blocks, sorted by key index; may holds
// the blocks possibly cached, and unknown whether some line no key names
// may be cached too.
type cacheState struct {
	must    []ageEntry
	may     dataflow.BitSet
	unknown bool
}

// copyFrom overwrites s with t, reusing s's storage.
func (s *cacheState) copyFrom(t *cacheState) {
	s.must = append(s.must[:0], t.must...)
	copy(s.may, t.may)
	s.unknown = t.unknown
}

// find returns k's position in must (or where it would be inserted) and
// whether k is resident.
func (s *cacheState) find(k int32) (int, bool) {
	return slices.BinarySearchFunc(s.must, k, func(e ageEntry, k int32) int { return cmp.Compare(e.key, k) })
}

// refresh makes k resident with age 0.
func (s *cacheState) refresh(k int32) {
	i, ok := s.find(k)
	if !ok {
		s.must = slices.Insert(s.must, i, ageEntry{key: k})
	}
	s.must[i].age = 0
}

// evict drops k from must.
func (s *cacheState) evict(k int32) {
	if i, ok := s.find(k); ok {
		s.must = slices.Delete(s.must, i, i+1)
	}
}

// join merges t into s where control flow meets and reports whether s
// changed: must keeps the blocks resident in both, at the older age
// bound; may takes the union.
func (s *cacheState) join(t *cacheState) bool {
	changed := false
	out, j := s.must[:0], 0
	for _, e := range s.must {
		for j < len(t.must) && t.must[j].key < e.key {
			j++
		}
		if j == len(t.must) || t.must[j].key != e.key {
			changed = true
			continue
		}
		if age := t.must[j].age; age > e.age {
			e.age = age
			changed = true
		}
		out = append(out, e)
	}
	s.must = out
	if s.may.UnionWith(t.may) {
		changed = true
	}
	if t.unknown && !s.unknown {
		s.unknown, changed = true, true
	}
	return changed
}

// ---- prefilter ----

// prefilter is one function's must/may fixed point in dense form: it steps
// through the function's table, and its per-block in-states and working
// state are allocated once and reused by every pass.
type prefilter struct {
	fs    *funcState
	tab   *FuncTable
	calls []callOp // per table summary
	// fills holds, per site, the blocks a through access may bring into
	// the cache besides its own: its may-target set, or for a named block
	// the pseudo-blocks whose register may address it. Nil for none.
	fills   []dataflow.BitSet
	clobber dataflow.BitSet // what a blanket-clobber call may cache
	in      []cacheState    // per block ID
	seen    []bool          // in[b.ID] is reached
	cur     cacheState
}

func (a *analyzer) newPrefilter(f *ir.Func) *prefilter {
	tab := a.table(f)
	fs := tab.fs
	nkeys, nb := len(tab.Keys), len(f.Blocks)
	p := &prefilter{
		fs:      fs,
		tab:     tab,
		calls:   make([]callOp, len(tab.Sums)),
		fills:   make([]dataflow.BitSet, len(tab.Sites)),
		clobber: dataflow.NewBitSet(nkeys),
		in:      make([]cacheState, nb),
		seen:    make([]bool, nb),
		cur:     cacheState{must: make([]ageEntry, 0, nkeys), may: dataflow.NewBitSet(nkeys)},
	}
	for i, s := range tab.Sums {
		p.calls[i] = tab.callOp(s)
	}
	// A site's may-target set, when it has one, already holds every block
	// it may name (uncertain sites and wider lines); namedBy is only ever
	// non-empty for a certain site with one-word lines, which has none.
	var namedFill map[int32]dataflow.BitSet
	for i := range tab.Sites {
		s := &tab.Sites[i]
		if s.TSet >= 0 {
			p.fills[i] = tab.tsets[s.TSet]
			continue
		}
		by := fs.namedBy[tab.Keys[s.Key]]
		if len(by) == 0 {
			continue
		}
		bits, ok := namedFill[s.Key]
		if !ok {
			bits = dataflow.NewBitSet(nkeys)
			for _, k := range by {
				bits.Set(tab.KeyIndex(k))
			}
			if namedFill == nil {
				namedFill = make(map[int32]dataflow.BitSet)
			}
			namedFill[s.Key] = bits
		}
		p.fills[i] = bits
	}

	// A blanket-clobbered callee may touch globals, anything reachable
	// through a pointer (address-taken frame objects), and lines named by
	// pseudo-blocks; with one-word lines it can never fetch this frame's
	// compiler-private words.
	for i, k := range tab.Keys {
		if a.cfg.LineWords != 1 || !k.Private() {
			p.clobber.Set(i)
		}
	}

	// Per-block in-states: the may halves share one backing array; a must
	// half is allocated when its block is first reached and only shrinks
	// under joins afterwards.
	words := len(p.clobber)
	back := make([]uint64, nb*words)
	for i := range p.in {
		p.in[i].may = back[i*words : (i+1)*words : (i+1)*words]
	}
	entry := &p.in[f.Entry().ID]
	if !a.coldEntry(f) {
		for i := range nkeys {
			entry.may.Set(i)
		}
		entry.unknown = true
	}
	p.seen[f.Entry().ID] = true
	return p
}

// ---- transfer ----

// step applies one position's transfer to st. An argument store touches
// no block the prefilter tracks.
func (p *prefilter) step(op InstrOp, st *cacheState) {
	switch op.Kind {
	case OpAccess:
		p.access(op.Arg, st)
	case OpSummary:
		p.call(&p.calls[op.Arg], st)
	case OpClobber:
		st.must = st.must[:0]
		st.may.UnionWith(p.clobber)
		st.unknown = true
	}

	// Redefining a register retires its pseudo-block: the old line loses
	// its name (but may still be cached), and the register's new value
	// may address any line the cache could be holding.
	if k := op.Retire; k >= 0 {
		st.evict(k)
		if st.may.Has(int(k)) {
			st.unknown = true
		}
		if st.unknown || !st.may.Empty() {
			st.may.Set(int(k))
		} else {
			st.may.Clear(int(k))
		}
	}
}

// access applies site i's transfer to st.
func (p *prefilter) access(i int32, st *cacheState) {
	a := p.fs.a
	s := &p.tab.Sites[i]
	k := s.Key
	through := !s.Bypass || !a.cfg.HonorBypass

	// Must half: age conflicting blocks younger than the target, then
	// refresh the target. A bypass reference allocates nothing, but a
	// bypass hit refreshes the line, so aging applies either way.
	if a.mustOK {
		ageC := int32(a.cfg.Ways) // acts as infinity: stored ages are < Ways
		j, resident := st.find(k)
		if resident {
			ageC = st.must[j].age
		}
		sk := p.tab.sets[k]
		out := st.must[:0]
		for _, e := range st.must {
			if e.key != k && e.age < ageC && p.tab.sets[e.key].mayConflict(sk) {
				if e.age+1 >= int32(a.cfg.Ways) {
					continue // evicted
				}
				e.age++
			}
			out = append(out, e)
		}
		st.must = out
		switch {
		case s.Last && a.killsMust():
			st.evict(k) // dead-marked: invalidated or demoted to victim
		case through || resident:
			// Fetched or refreshed, or a bypass hit on a
			// guaranteed-resident line: resident afterwards.
			st.refresh(k)
		}
	}

	// May half.
	if through {
		st.may.Set(int(k))
		if f := p.fills[i]; f != nil {
			st.may.UnionWith(f)
		}
	}
	if s.Last && a.killsMay() {
		// The access definitely leaves the target line uncached: killed
		// if it was resident, not allocated if it was not.
		st.may.Clear(int(k))
	}
}

// ---- fixpoint ----

// solve iterates to the fixed point and reports false when Options.Done
// abandoned it.
func (p *prefilter) solve() bool {
	for changed := true; changed; {
		if canceled(p.fs.a.opt.Done) {
			return false
		}
		changed = p.pass()
	}
	return true
}

// pass sweeps the reached blocks once in reverse postorder and reports
// whether any in-state changed. Once every block has been reached it
// allocates nothing.
func (p *prefilter) pass() bool {
	changed := false
	for _, b := range p.tab.RPO {
		if !p.seen[b.ID] {
			continue
		}
		p.cur.copyFrom(&p.in[b.ID])
		p.run(b, nil)
		for _, s := range b.Succs {
			if !p.seen[s.ID] {
				p.seen[s.ID] = true
				p.in[s.ID].copyFrom(&p.cur)
				changed = true
				continue
			}
			if p.in[s.ID].join(&p.cur) {
				changed = true
			}
		}
	}
	return changed
}

// record runs the final pass: each site's verdict is read from the state
// before it, starting from the stable in-states.
func (p *prefilter) record(rep *CacheReport) {
	for _, b := range p.fs.f.Blocks {
		if p.seen[b.ID] {
			p.cur.copyFrom(&p.in[b.ID])
			p.run(b, rep)
		}
	}
}

// run transfers the working state through block b, recording each site's
// verdict into rep when it is non-nil.
func (p *prefilter) run(b *ir.Block, rep *CacheReport) {
	st := &p.cur
	for _, op := range p.tab.Ops[p.tab.Start[b.ID] : p.tab.Start[b.ID]+len(b.Instrs)] {
		if rep != nil && op.Kind == OpAccess {
			s := &p.tab.Sites[op.Arg]
			rep.Verdicts[s.In.Ref] = p.verdict(s, st)
		}
		p.step(op, st)
	}
}

func (p *prefilter) verdict(s *Site, st *cacheState) Verdict {
	if s.Bypass && p.fs.a.cfg.HonorBypass {
		return Bypassed
	}
	if _, ok := st.find(s.Key); ok {
		return AlwaysHit
	}
	if !st.may.Has(int(s.Key)) {
		return AlwaysMiss
	}
	return Unknown
}
