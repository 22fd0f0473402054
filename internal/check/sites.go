package check

import (
	"repro/internal/cache"
	"repro/internal/ir"
)

// This file is the exported face of the must/may analysis's site machinery,
// used by internal/exact: the exact refinement must resolve reference sites
// to the *same* abstract blocks, with the same alias targets and the same
// set-conflict reasoning, or its verdicts would be about a different
// program than the prefilter's.

// SiteKey identifies one abstract memory block (a global line, a frame
// scalar, a spill slot, or the pseudo-block named by an address register
// between two of its definitions). Values compare with == and render with
// String; they can only be obtained through a SiteModel.
type SiteKey = blockKey

// Pseudo reports whether the key is a pseudo-block (address-uncertain: the
// line is whatever the register holds).
func (k blockKey) Pseudo() bool { return k.kind == kPseudo }

// PseudoReg returns the register naming a pseudo-block (ir.NoReg otherwise).
func (k blockKey) PseudoReg() ir.Reg {
	if k.kind == kPseudo {
		return k.reg
	}
	return ir.NoReg
}

// Private reports whether the block is compiler-private to its activation
// frame — a spill slot or a non-address-taken frame scalar. With one-word
// lines no callee can fetch or name such a block.
func (k blockKey) Private() bool {
	return k.kind == kSpill || (k.kind == kFrame && !k.obj.AddrTaken)
}

// SiteInfo describes one resolved reference site.
type SiteInfo struct {
	Key       SiteKey
	Uncertain bool // address not a fixed named location
	AliasSet  int  // alias set of the reference, -1 if unresolved
	Bypass    bool // site carries the UmAm bypass bit
	Last      bool // site carries the Last (dead-marking) bit
}

// SiteModel exposes block resolution, alias targets and set-conflict
// queries for a whole program under one cache configuration.
type SiteModel struct {
	a     *analyzer
	funcs map[*ir.Func]*FuncSites
}

// NewSiteModel validates the configuration and prepares resolution state;
// its AnalyzeCache method runs the must/may prefilter over the same state.
func NewSiteModel(p *ir.Program, ccfg cache.Config, opt Options) (*SiteModel, error) {
	a, err := newAnalyzer(p, ccfg, opt)
	if err != nil {
		return nil, err
	}
	return &SiteModel{a: a, funcs: make(map[*ir.Func]*FuncSites)}, nil
}

// MustHalf reports whether must-style (LRU age) reasoning is sound under
// the model's replacement policy.
func (m *SiteModel) MustHalf() bool { return m.a.mustOK }

// ColdEntry reports whether f is entered with a definitely-empty cache
// (only main, and only when nothing ever calls main again).
func (m *SiteModel) ColdEntry(f *ir.Func) bool { return m.a.coldEntry(f) }

// Func returns (and caches) the per-function site universe.
func (m *SiteModel) Func(f *ir.Func) *FuncSites {
	fs, ok := m.funcs[f]
	if !ok {
		fs = &FuncSites{fs: m.a.funcState(f)}
		m.funcs[f] = fs
	}
	return fs
}

// Interproc reports whether summary-based call transfer is enabled.
func (m *SiteModel) Interproc() bool { return m.a.opt.Interproc }

// CallSummary returns the transitive effect summary for the call
// instruction's callee (the Clobber summary when interprocedural mode is
// off, the callee is unknown or recursive, or lines are wider than one
// word). The result is memoized and shared; callers must not mutate it.
func (m *SiteModel) CallSummary(in *ir.Instr) *CallSummary {
	if !m.a.opt.Interproc || in.Op != ir.OpCall {
		return clobberSummary
	}
	return m.a.callSummary(in.Callee)
}

// GlobalLineKey constructs the site key of an absolute global cache line,
// letting the exact refinement name the lines a call summary reports.
func GlobalLineKey(line int64) SiteKey {
	return blockKey{kind: kGlobal, line: line}
}

// GlobalLine returns the absolute line of a global-line key (ok false for
// every other block class, whose absolute placement is unknown).
func (k blockKey) GlobalLine() (int64, bool) {
	if k.kind == kGlobal {
		return k.line, true
	}
	return 0, false
}

// FuncSites answers site queries within one function.
type FuncSites struct {
	fs *funcState
}

// Resolve maps a load/store instruction to its site description; ok is
// false for instructions that are not classified reference sites.
func (s *FuncSites) Resolve(in *ir.Instr) (SiteInfo, bool) {
	if in.Ref == nil || (in.Op != ir.OpLoad && in.Op != ir.OpStore) {
		return SiteInfo{}, false
	}
	acc := s.fs.resolve(in)
	return SiteInfo{
		Key:       acc.key,
		Uncertain: acc.uncertain,
		AliasSet:  acc.set,
		Bypass:    acc.bypass,
		Last:      acc.last,
	}, true
}

// NamedKeys returns every named (non-pseudo) block of the function, in the
// deterministic discovery order of the instruction walk.
func (s *FuncSites) NamedKeys() []SiteKey {
	var out []SiteKey
	for _, k := range s.fs.allKeys {
		if k.kind != kPseudo {
			out = append(out, k)
		}
	}
	return out
}

// MayTargets returns the blocks a through-cache access at the site may
// bring into the cache — for a certain site just its own block, for an
// address-uncertain one every block its alias set (or, unresolved, any
// address-taken object) could name.
func (s *FuncSites) MayTargets(si SiteInfo) []SiteKey {
	return s.fs.mayTargets(access{key: si.Key, uncertain: si.Uncertain, set: si.AliasSet})
}

// MayConflict reports whether the two blocks may map to the same cache set.
func (s *FuncSites) MayConflict(x, y SiteKey) bool {
	return x == y || s.fs.conflict(x, y)
}

// MustConflict reports whether two blocks definitely map to the same cache
// set: global lines by absolute address, frame-class blocks of the same
// activation by offset delta (one-word lines only — with wider lines frame
// offsets are word offsets, not line offsets).
func (s *FuncSites) MustConflict(x, y SiteKey) bool {
	return s.fs.setClassOf(x).mustConflict(s.fs.setClassOf(y))
}
