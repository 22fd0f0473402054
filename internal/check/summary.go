package check

import (
	"sort"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/sem"
)

// This file implements the summary side of the interprocedural mode
// (Options.Interproc): instead of treating every OpCall as a blanket
// clobber of the cache state, the analyzer computes one transitive
// CallSummary per function — what the callee (and everything it calls) can
// do to the cache — and the must/may prefilter and the exact refinement
// both transfer calls through it. Summaries are may-facts: they bound what
// a call can disturb, never assert what it definitely does, so they can
// age and weaken caller state but never refresh it.
//
// The representation leans on two address-space facts of this machine:
// globals live at compile-time-known absolute lines (so callee global
// traffic is nameable — arrays as contiguous line *spans*, which stay
// exact at any array size), and stack frames are bump-allocated below the
// caller's frame (so with one-word lines callee frame traffic can conflict
// with — but never fetch or name — any block the caller tracks). Both
// break for wider lines, so summaries degrade to Clobber unless
// LineWords == 1.

// LineSpan is an inclusive range of absolute global cache lines.
type LineSpan struct {
	Lo, Hi int64
}

// Lines is the number of lines the span covers.
func (s LineSpan) Lines() int64 { return s.Hi - s.Lo + 1 }

// LinesInSet counts the span's lines mapping to the given cache set.
func (s LineSpan) LinesInSet(set, sets int64) int64 {
	first := s.Lo + (set-s.Lo%sets+sets)%sets
	if first > s.Hi {
		return 0
	}
	return (s.Hi-first)/sets + 1
}

// spansContain reports membership in a sorted, disjoint span list.
func spansContain(sp []LineSpan, line int64) bool {
	i := sort.Search(len(sp), func(i int) bool { return sp[i].Hi >= line })
	return i < len(sp) && sp[i].Lo <= line
}

// summaryMaxSpans caps how many disjoint spans a summary keeps; beyond it
// neighboring spans coalesce (covering the gaps — a sound
// over-approximation that never degrades to Uncertain).
const summaryMaxSpans = 32

// summaryPrivateCap saturates the private-word counter; any value at or
// above the associativity already defeats every residency argument, so
// precision beyond a small bound is worthless.
const summaryPrivateCap = 1 << 16

// CallSummary bounds the cache effect of calling one function, including
// everything it transitively calls and the machine-invented frame traffic
// (prologue/epilogue saves, argument staging) the IR does not spell out.
type CallSummary struct {
	// Clobber: no usable bound — recursion in the call graph, an unknown
	// callee, summary-depth budget exhaustion, or a multi-word-line
	// configuration. Callers must fall back to the blanket-clobber
	// transfer.
	Clobber bool

	// FillSpans are the global lines the call may bring *through* the
	// cache (allocating); RefSpans additionally include lines only
	// referenced via bypass, which never allocate but can refresh LRU
	// recency on a hit. Both are sorted and disjoint; FillSpans ⊆
	// RefSpans line-wise.
	FillSpans []LineSpan
	RefSpans  []LineSpan

	// Private counts distinct compiler-private stack words the call may
	// reference: callee frame scalars and arrays, spill slots, outgoing
	// and incoming argument staging, and saved RA / callee-saved
	// registers. Each may conflict with (map to the same set as) any
	// caller block, but — with one-word lines — can never *be* one.
	Private int

	// Uncertain: the call may touch lines the summary cannot name
	// (pointer dereferences the alias analysis left unresolved, or
	// accesses to other activations' frame objects).
	Uncertain bool

	// Kills: the call may execute a Last-tagged reference (or a machine
	// epilogue restore) that frees or demotes a way under the active
	// dead-marking mode.
	Kills bool
}

// clobberSummary is the shared no-information summary.
var clobberSummary = &CallSummary{Clobber: true}

// MayFillLine reports whether the call may fetch the given global line
// into the cache.
func (s *CallSummary) MayFillLine(line int64) bool { return spansContain(s.FillSpans, line) }

// MayRefLine reports whether the call may reference the given global line
// at all (through the cache or bypassing it).
func (s *CallSummary) MayRefLine(line int64) bool { return spansContain(s.RefSpans, line) }

// ---- summary construction ----

// summaryBuilder accumulates one function's effect set.
type summaryBuilder struct {
	fills   []LineSpan
	refs    []LineSpan
	private map[blockKey]bool // distinct private words, keyed for dedup
	extra   int               // private words with no blockKey (machine overhead)
	out     CallSummary
}

func (b *summaryBuilder) addSpan(lo, hi int64, through bool) {
	b.refs = append(b.refs, LineSpan{lo, hi})
	if through {
		b.fills = append(b.fills, LineSpan{lo, hi})
	}
}

func (b *summaryBuilder) addPrivate(k blockKey) { b.private[k] = true }

// normalizeSpans sorts, merges overlapping/adjacent spans, and coalesces
// the closest neighbors while over the cap.
func normalizeSpans(sp []LineSpan) []LineSpan {
	if len(sp) == 0 {
		return nil
	}
	sort.Slice(sp, func(i, j int) bool {
		if sp[i].Lo != sp[j].Lo {
			return sp[i].Lo < sp[j].Lo
		}
		return sp[i].Hi < sp[j].Hi
	})
	out := sp[:1]
	for _, s := range sp[1:] {
		last := &out[len(out)-1]
		if s.Lo <= last.Hi+1 {
			if s.Hi > last.Hi {
				last.Hi = s.Hi
			}
		} else {
			out = append(out, s)
		}
	}
	for len(out) > summaryMaxSpans {
		// Coalesce the pair with the smallest gap; covering the gap only
		// widens the may-fact.
		best, gap := 0, int64(1)<<62
		for i := 0; i+1 < len(out); i++ {
			if g := out[i+1].Lo - out[i].Hi; g < gap {
				best, gap = i, g
			}
		}
		out[best].Hi = out[best+1].Hi
		out = append(out[:best+1], out[best+2:]...)
	}
	return out
}

func (b *summaryBuilder) finish() *CallSummary {
	if b.out.Clobber {
		return clobberSummary
	}
	s := b.out
	s.FillSpans = normalizeSpans(b.fills)
	s.RefSpans = normalizeSpans(b.refs)
	s.Private = len(b.private) + b.extra
	if s.Private > summaryPrivateCap {
		s.Private = summaryPrivateCap
	}
	return &s
}

// defaultCallDepth is the summary-recursion budget when Options.CallDepth
// is zero: deep enough that real call graphs never hit it, finite so a
// pathological one degrades instead of looping.
const defaultCallDepth = 64

// summaryOf returns (computing and memoizing on first use) the transitive
// call summary of f. Cycles in the call graph and budget exhaustion yield
// the Clobber summary — conservative, never an error.
func (a *analyzer) summaryOf(f *ir.Func, depth int) *CallSummary {
	if f == nil || a.cfg.LineWords != 1 {
		return clobberSummary
	}
	if s, ok := a.summaries[f]; ok {
		return s
	}
	if a.onStack[f] || depth <= 0 {
		// Recursion (or exhausted budget): every caller on the cycle sees
		// a clobber for this edge, which poisons their own summaries to
		// Clobber — the sound fixed point for recursive cliques.
		return clobberSummary
	}
	a.onStack[f] = true
	s := a.buildSummary(f, depth)
	delete(a.onStack, f)
	a.summaries[f] = s
	return s
}

// callSummary resolves a call instruction's callee object to its summary.
func (a *analyzer) callSummary(callee *sem.Object) *CallSummary {
	if callee == nil {
		return clobberSummary
	}
	f, ok := a.funcByName[callee.Name]
	if !ok {
		return clobberSummary
	}
	depth := a.opt.CallDepth
	if depth <= 0 {
		depth = defaultCallDepth
	}
	return a.summaryOf(f, depth)
}

func (a *analyzer) buildSummary(f *ir.Func, depth int) *CallSummary {
	fs := a.funcState(f)
	b := &summaryBuilder{private: make(map[blockKey]bool)}
	argRegs := len(isa.ArgRegs())
	hasCalls := false
	outArgs := make(map[int64]bool)

	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			switch {
			case in.Op == ir.OpCall:
				hasCalls = true
				for j := int64(argRegs); j < in.Imm; j++ {
					outArgs[j] = true // staged through the cache (OpArg)
				}
				child := a.summaryOf(a.calleeFunc(in), depth-1)
				b.merge(child)

			case in.Ref != nil && (in.Op == ir.OpLoad || in.Op == ir.OpStore):
				if in.Ref.Unreachable {
					// Empty points-to set: the access cannot execute in a
					// defined program, so it contributes nothing (PR 5's
					// ⊥-vs-⊤ distinction, applied across call boundaries).
					continue
				}
				a.summarizeAccess(fs, in, b)
			}
		}
	}

	// Machine-invented frame traffic the IR never shows: saved RA and
	// callee-saved registers (through-cache stores in the prologue,
	// Last-tagged bypass reloads in the epilogue), outgoing-argument
	// staging beyond the register window, and incoming stack-parameter
	// reloads (which read the caller's staging area — still
	// compiler-private words).
	b.extra += len(outArgs)
	stackParams := len(f.Params) - argRegs
	if stackParams < 0 {
		stackParams = 0
	}
	b.extra += stackParams
	saved := 0
	if n, ok := a.opt.SavedRegs[f.Name]; ok {
		saved = n
	} else {
		saved = len(isa.AllocatableCalleeSaved())
	}
	if hasCalls {
		saved++ // RA
	}
	b.extra += saved
	if a.opt.Unified && a.cfg.DeadKillsResidency() && (saved > 0 || stackParams > 0 || f.SpillSlots > 0) {
		// Epilogue restores and staged reloads carry the Last bit in
		// unified compilations: they free ways.
		b.out.Kills = true
	}
	return b.finish()
}

// calleeFunc maps a call instruction to the callee's ir.Func (nil when
// unknown, which summarizes as Clobber).
func (a *analyzer) calleeFunc(in *ir.Instr) *ir.Func {
	if in.Callee == nil {
		return nil
	}
	return a.funcByName[in.Callee.Name]
}

func (b *summaryBuilder) merge(child *CallSummary) {
	if child == nil || child.Clobber {
		b.out.Clobber = true
		return
	}
	b.fills = append(b.fills, child.FillSpans...)
	b.refs = append(b.refs, child.RefSpans...)
	b.extra += child.Private
	b.out.Uncertain = b.out.Uncertain || child.Uncertain
	b.out.Kills = b.out.Kills || child.Kills
}

// summarizeAccess classifies one reference site of f into the builder.
func (a *analyzer) summarizeAccess(fs *funcState, in *ir.Instr, b *summaryBuilder) {
	acc := fs.resolve(in)
	through := !acc.bypass || !a.cfg.HonorBypass
	if acc.last && a.cfg.DeadKillsResidency() {
		b.out.Kills = true
	}
	switch acc.key.kind {
	case kSpill:
		b.addPrivate(acc.key)
	case kGlobal:
		b.addSpan(acc.key.line, acc.key.line, through)
	case kFrame:
		if _, own := fs.frameOff[acc.key.obj]; own {
			b.addPrivate(acc.key)
		} else {
			// A resolved pointer into some other activation's frame: the
			// word is real but its line is unknowable here.
			b.out.Uncertain = true
		}
	default: // kPseudo: element or unresolved pointer traffic
		ref := in.Ref
		if ref.Kind == ir.RefElement && ref.Obj != nil {
			words := int64(ref.Obj.Type.Words())
			if start, ok := a.globalStart[ref.Obj]; ok {
				// LineWords == 1 here (summaries clobber otherwise), so
				// the element range is exactly a line range.
				b.addSpan(start, start+words-1, through)
				return
			}
			if _, own := fs.frameOff[ref.Obj]; own {
				// Element of the function's own frame array: private
				// words, one per element (saturating well above any
				// associativity).
				n := words
				if n > 256 {
					n = 256
				}
				for w := int64(0); w < n; w++ {
					b.addPrivate(blockKey{kind: kFrame, obj: ref.Obj, slot: int(w)})
				}
				return
			}
		}
		b.out.Uncertain = true
	}
}

// ---- call transfer through a summary (must/may halves) ----

// summaryConflictBound counts (bounded) how many distinct callee blocks
// may map to block k's cache set: private words always may (their
// absolute set is unknown), global traffic by modular arithmetic when k's
// set is known, in full otherwise.
func (fs *funcState) summaryConflictBound(s *CallSummary, k blockKey) int {
	n := int64(s.Private)
	sets := int64(fs.a.cfg.Sets)
	if k.kind == kGlobal {
		for _, sp := range s.RefSpans {
			n += sp.LinesInSet(k.line%sets, sets)
		}
	} else {
		// Frame-class or pseudo target: its absolute set is unknown, so
		// every summarized line may conflict.
		for _, sp := range s.RefSpans {
			n += sp.Lines()
		}
	}
	if n > int64(fs.a.cfg.Ways) {
		n = int64(fs.a.cfg.Ways) // enough to evict; larger is meaningless
	}
	return int(n)
}

// summaryMayTouch reports whether the call may reference block k itself
// (refreshing or killing it). Frame-class blocks of the current activation
// are untouchable by construction: with one-word lines a callee can reach
// them only through pointers, which the summary reports as Uncertain.
func summaryMayTouch(s *CallSummary, k blockKey) bool {
	switch k.kind {
	case kGlobal:
		return s.MayRefLine(k.line)
	case kPseudo:
		// The register may name any addressable line — any of the
		// summary's globals, but never the callee's private words (no
		// defined program holds a pointer into a frame that does not yet
		// exist, and the staging areas are not addressable).
		return len(s.RefSpans) > 0
	}
	return false
}

// callOp is one distinct non-clobber call summary resolved against the
// caller's key indices, so the transfer reads two tables instead of
// walking the summary's spans per resident block.
type callOp struct {
	// age is, per key index, how much the call ages a resident block; a
	// block whose bound reaches the associativity leaves must (an
	// Uncertain call, or a killing one that may touch the block, ages it
	// by the associativity itself). Nil when the must half is off.
	age  []int32
	fill dataflow.BitSet // blocks the call may make possibly-cached
	// unknown: the call may cache lines no key of the caller names.
	unknown bool
}

func (t *FuncTable) callOp(s *CallSummary) callOp {
	fs, a := t.fs, t.fs.a
	ways := int32(a.cfg.Ways)
	fills := len(s.FillSpans) > 0
	c := callOp{
		fill:    dataflow.NewBitSet(len(t.Keys)),
		unknown: s.Uncertain || fills || s.Private > 0,
	}
	if a.mustOK {
		c.age = make([]int32, len(t.Keys))
	}
	for i, k := range t.Keys {
		if c.age != nil {
			switch {
			case s.Uncertain, summaryMayTouch(s, k) && s.Kills:
				c.age[i] = ways
			default:
				c.age[i] = int32(fs.summaryConflictBound(s, k))
			}
		}

		// May half: exactly the lines the call can allocate become
		// possibly cached; every caller block the callee provably cannot
		// fetch keeps its always-miss eligibility.
		switch {
		case s.Uncertain:
			// Unnameable traffic: fall back to the coarse reachability
			// rule (everything except provably private frame state).
			if k.kind == kGlobal || k.kind == kPseudo || (k.kind == kFrame && k.obj.AddrTaken) {
				c.fill.Set(i)
			}
		case k.kind == kGlobal:
			if s.MayFillLine(k.line) {
				c.fill.Set(i)
			}
		case k.kind == kPseudo:
			// The pseudo-block's register may name one of the freshly
			// cached globals.
			if fills {
				c.fill.Set(i)
			}
		}
	}
	return c
}

// call applies a non-clobber call summary to st. It only ever weakens:
// it ages or drops must entries and adds may entries.
func (p *prefilter) call(c *callOp, st *cacheState) {
	if c.age != nil {
		ways := int32(p.fs.a.cfg.Ways)
		out := st.must[:0]
		for _, e := range st.must {
			if e.age += c.age[e.key]; e.age < ways {
				out = append(out, e)
			}
		}
		st.must = out
	}
	st.may.UnionWith(c.fill)
	if c.unknown {
		st.unknown = true
	}
}
