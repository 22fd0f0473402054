package check

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// This file is the exported face of the site machinery: one table per
// function and SiteModel, built once, that the must/may prefilter
// (cachean.go) and the exact refinement (internal/exact) both read. Sharing
// it is what keeps the two tiers about the same program: every site
// resolves to the same abstract block under the same key index, with the
// same alias targets and the same set-conflict reasoning.

// SiteKey identifies one abstract memory block (a global line, a frame
// scalar, a spill slot, or the pseudo-block named by an address register
// between two of its definitions). Values compare with == and render with
// String; they can only be obtained through a SiteModel.
type SiteKey = blockKey

// Pseudo reports whether the key is a pseudo-block (address-uncertain: the
// line is whatever the register holds).
func (k blockKey) Pseudo() bool { return k.kind == kPseudo }

// Private reports whether the block is compiler-private to its activation
// frame — a spill slot or a non-address-taken frame scalar. With one-word
// lines no callee can fetch or name such a block.
func (k blockKey) Private() bool {
	return k.kind == kSpill || (k.kind == kFrame && !k.obj.AddrTaken)
}

// SiteModel exposes block resolution, alias targets and set-conflict
// queries for a whole program under one cache configuration.
type SiteModel struct {
	a *analyzer
}

// NewSiteModel validates the configuration and prepares resolution state;
// its AnalyzeCache method runs the must/may prefilter over the same state.
func NewSiteModel(p *ir.Program, ccfg cache.Config, opt Options) (*SiteModel, error) {
	a, err := newAnalyzer(p, ccfg, opt)
	if err != nil {
		return nil, err
	}
	return &SiteModel{a: a}, nil
}

// MustHalf reports whether must-style (LRU age) reasoning is sound under
// the model's replacement policy.
func (m *SiteModel) MustHalf() bool { return m.a.mustOK }

// ColdEntry reports whether f is entered with a definitely-empty cache
// (only main, and only when nothing ever calls main again).
func (m *SiteModel) ColdEntry(f *ir.Func) bool { return m.a.coldEntry(f) }

// Table returns f's site table, building it on first use. AnalyzeCache
// builds the table of every function it analyzes, so a caller that runs
// the prefilter first reads the same tables.
func (m *SiteModel) Table(f *ir.Func) *FuncTable { return m.a.table(f) }

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

// Transfer kinds of a table position.
const (
	OpNone    uint8 = iota // no cache effect
	OpAccess               // load/store site: Arg indexes Sites
	OpSummary              // call transferred through a summary: Arg indexes Sums
	OpClobber              // call transferred as a blanket clobber
	OpArg                  // outgoing argument store (the prefilter tracks no such block)
)

// InstrOp is the transfer of one instruction position.
type InstrOp struct {
	Kind uint8
	Arg  int32
	// Retire is the key index of the pseudo-block the instruction's
	// definition retires, -1 if none.
	Retire int32
}

// Site is one classified reference site of a function.
type Site struct {
	In    *ir.Instr
	Block int32 // b.ID
	Index int32 // instruction index within the block
	Key   int32 // key index of the site's block
	// TSet names the site's may-target set (see HasTarget): with one-word
	// lines an uncertain site's targets are every block its alias set may
	// reach, and with wider lines every block. -1 when the site can only
	// name its own block.
	TSet      int32
	Uncertain bool // address not a fixed named location
	Bypass    bool // site carries the UmAm bypass bit
	Last      bool // site carries the Last (dead-marking) bit
}

// FuncTable is one function's site table:
//
//   - positions: instruction i of block b sits at Start[b.ID]+i, and Ops
//     gives each position its transfer;
//   - Sites: every classified reference site, in program order;
//   - Sums: the distinct non-clobber call summaries, in first-call order;
//   - Keys, by key index: the function's named blocks in discovery order,
//     then (interprocedural mode) the single-line globals its summaries
//     reference and it does not name itself, ascending, then the
//     pseudo-blocks in discovery order. The first Named keys are the ones
//     a solver may give name bits;
//   - may-target sets, one per access signature, and the reverse
//     postorder.
type FuncTable struct {
	fs    *funcState
	Start []int
	Ops   []InstrOp
	Sites []Site
	Sums  []*CallSummary
	Keys  []SiteKey
	Named int
	RPO   []*ir.Block

	sets  []setClass        // per key index: the key's cache-set facts
	lines []int64           // the summarized lines among Keys, ascending
	tsets []dataflow.BitSet // may-target sets over key indices
}

// table returns (building it on first use) f's site table. It runs after
// f's funcState exists and may build call summaries, which re-enter the
// callees' funcStates; newFuncState itself never builds a table.
func (a *analyzer) table(f *ir.Func) *FuncTable {
	fs := a.funcState(f)
	if fs.tab == nil {
		fs.tab = fs.newTable()
	}
	return fs.tab
}

func (fs *funcState) newTable() *FuncTable {
	a, f := fs.a, fs.f
	t := &FuncTable{fs: fs, Start: make([]int, len(f.Blocks)), RPO: cfg.ReversePostorder(f)}
	n := 0
	for _, b := range f.Blocks {
		t.Start[b.ID] = n
		n += len(b.Instrs)
	}
	t.Ops = make([]InstrOp, n)
	t.Sites = make([]Site, 0, fs.sites)
	sumIdx := make(map[*CallSummary]int32)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			op := &t.Ops[t.Start[b.ID]+i]
			op.Retire = -1
			if d := in.Def(); d != ir.NoReg {
				if k, ok := fs.keyIdx[blockKey{kind: kPseudo, reg: d}]; ok {
					op.Retire = int32(k)
				}
			}
			switch {
			case isSite(in):
				acc := fs.resolve(in)
				op.Kind, op.Arg = OpAccess, int32(len(t.Sites))
				t.Sites = append(t.Sites, Site{In: in, Block: int32(b.ID), Index: int32(i), Key: int32(fs.keyIdx[acc.key]),
					Uncertain: acc.uncertain, Bypass: acc.bypass, Last: acc.last})
			case in.Op == ir.OpArg:
				op.Kind = OpArg
			case in.Op == ir.OpCall:
				op.Kind = OpClobber
				if !a.opt.Interproc {
					break
				}
				s := a.callSummary(in.Callee)
				if s.Clobber {
					break
				}
				j, ok := sumIdx[s]
				if !ok {
					j = int32(len(t.Sums))
					sumIdx[s] = j
					t.Sums = append(t.Sums, s)
					// Only single-line spans become keys; wider spans age
					// as anonymous traffic (one key per array element
					// would overflow any name table).
					for _, sp := range s.RefSpans {
						if sp.Lo == sp.Hi {
							t.lines = append(t.lines, sp.Lo)
						}
					}
				}
				op.Kind, op.Arg = OpSummary, j
			}
		}
	}

	// Key order. The summarized lines sit between the function's named
	// blocks and its pseudo-blocks, so a call's global traffic counts as
	// definitely-distinct named blocks, not fresh anonymous ones on every
	// call, which is what lets residency bounds survive call-heavy loops.
	// Lines the function already names keep their own key (same block,
	// same bit). Positions and sites above hold site-key indices, whose
	// pseudo-blocks now move up past the lines.
	slices.Sort(t.lines)
	t.lines = slices.Compact(t.lines)
	t.lines = slices.DeleteFunc(t.lines, func(l int64) bool {
		_, ok := fs.keyIdx[GlobalLineKey(l)]
		return ok
	})
	if shift := len(t.lines); shift > 0 {
		for i := range t.Ops {
			if t.Ops[i].Retire >= 0 {
				t.Ops[i].Retire += int32(shift)
			}
		}
		for i := range t.Sites {
			if t.Sites[i].Key >= int32(fs.named) {
				t.Sites[i].Key += int32(shift)
			}
		}
	}
	t.Keys = fs.allKeys
	if len(t.lines) > 0 {
		t.Keys = make([]SiteKey, 0, len(fs.allKeys)+len(t.lines))
		t.Keys = append(t.Keys, fs.allKeys[:fs.named]...)
		for _, l := range t.lines {
			t.Keys = append(t.Keys, GlobalLineKey(l))
		}
		t.Keys = append(t.Keys, fs.allKeys[fs.named:]...)
	}
	t.Named = fs.named + len(t.lines)
	t.sets = make([]setClass, len(t.Keys))
	for i, k := range t.Keys {
		t.sets[i] = fs.setClassOf(k)
	}

	// May-target sets. With one-word lines a certain site names only its
	// own block and an uncertain one's targets depend on its alias set
	// alone; with wider lines every access reaches every block.
	coarse := a.cfg.LineWords != 1
	tsetOf := make(map[int]int32)
	for i := range t.Sites {
		s := &t.Sites[i]
		s.TSet = -1
		if !coarse && !s.Uncertain {
			continue
		}
		sig := s.In.Ref.AliasSet
		if coarse {
			sig = 0
		}
		j, ok := tsetOf[sig]
		if !ok {
			j = -1
			key := t.Keys[s.Key]
			targets := fs.mayTargets(access{key: key, uncertain: s.Uncertain, set: s.In.Ref.AliasSet})
			if len(targets) != 1 || targets[0] != key {
				bits := dataflow.NewBitSet(len(t.Keys))
				for _, k := range targets {
					bits.Set(t.KeyIndex(k))
				}
				j = int32(len(t.tsets))
				t.tsets = append(t.tsets, bits)
			}
			tsetOf[sig] = j
		}
		s.TSet = j
	}
	return t
}

// KeyIndex returns the key index of k, or -1 when the table holds no such
// block.
func (t *FuncTable) KeyIndex(k SiteKey) int {
	if i, ok := t.fs.keyIdx[k]; ok {
		if k.kind == kPseudo {
			i += len(t.lines)
		}
		return i
	}
	if k.kind == kGlobal {
		if j, ok := slices.BinarySearch(t.lines, k.line); ok {
			return t.fs.named + j
		}
	}
	return -1
}

// HasTarget reports whether key index key is in may-target set ts (never
// for ts -1).
func (t *FuncTable) HasTarget(ts, key int32) bool {
	return ts >= 0 && t.tsets[ts].Has(int(key))
}

// MayConflict reports whether the two blocks may map to the same cache set.
func (t *FuncTable) MayConflict(x, y SiteKey) bool {
	return x == y || t.fs.conflict(x, y)
}

// MustConflict reports whether two blocks definitely map to the same cache
// set: global lines by absolute address, frame-class blocks of the same
// activation by offset delta (one-word lines only — with wider lines frame
// offsets are word offsets, not line offsets).
func (t *FuncTable) MustConflict(x, y SiteKey) bool {
	return t.fs.setClassOf(x).mustConflict(t.fs.setClassOf(y))
}
