package check

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/ir"
)

// This file keeps the map-based must/may fixed point the dense prefilter
// in cachean.go replaced, as a test-only reference: one map per abstract
// state, cloned per block per pass, each access re-resolved and its fill
// targets re-listed on every pass. TestPrefilterMatchesMapOracle requires
// both to produce identical verdicts. The code is the old production code
// unchanged, with three exceptions: a register is recognised as a
// pseudo-block's through the function's key index, the fixed point takes
// no cancellation, and the set-conflict test and the namedBy lists are the
// old per-key and per-access versions below, so the oracle shares neither
// with the code it checks.

// analyzeCacheOracle is AnalyzeCache over the map-based fixed point.
func analyzeCacheOracle(p *ir.Program, ccfg cache.Config, opt Options) (*CacheReport, error) {
	a, err := newAnalyzer(p, ccfg, opt)
	if err != nil {
		return nil, err
	}
	rep := &CacheReport{Config: ccfg, Verdicts: make(map[*ir.MemRef]Verdict), MustHalf: a.mustOK}
	for _, f := range p.Funcs {
		a.funcState(f).namedBy = a.funcState(f).namedByOracle()
		a.analyzeFunc(f, rep)
	}
	rep.count()
	return rep, nil
}

// namedByOracle lists, per named key, the pseudo-blocks whose register may
// address that key's line, one access at a time.
func (fs *funcState) namedByOracle() map[blockKey][]blockKey {
	namedBy := make(map[blockKey][]blockKey)
	if fs.a.cfg.LineWords != 1 {
		return namedBy
	}
	for _, b := range fs.f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Ref == nil {
				continue
			}
			acc := fs.resolve(in)
			if acc.key.kind != kPseudo {
				continue
			}
			for _, t := range fs.mayTargets(acc) {
				if t.kind != kPseudo && !slices.Contains(namedBy[t], acc.key) {
					namedBy[t] = append(namedBy[t], acc.key)
				}
			}
		}
	}
	return namedBy
}

// conflictOracle reports whether two distinct blocks may map to the same
// cache set. Global lines have known sets; frame-class blocks of the same
// activation have known set *deltas* when lines are one word (their
// absolute base is unknown but shared); everything else may conflict.
func (fs *funcState) conflictOracle(x, y blockKey) bool {
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
	if d := in.Def(); d != ir.NoReg {
		k := blockKey{kind: kPseudo, reg: d}
		if _, isPseudo := fs.keyIdx[k]; !isPseudo {
			return
		}
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
			if b == k || ab >= ageC || !fs.conflictOracle(b, k) {
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

// transferCallSummary applies a non-clobber call summary to the must/may
// state. It must only ever weaken: age or drop must entries, add may
// entries.
func (fs *funcState) transferCallSummary(s *CallSummary, must mustState, may *mayState) {
	a := fs.a
	if a.mustOK {
		if s.Uncertain {
			for k := range must {
				delete(must, k)
			}
		} else {
			for k, age := range must {
				if summaryMayTouch(s, k) && s.Kills {
					delete(must, k)
					continue
				}
				n := fs.summaryConflictBound(s, k)
				if age+n >= a.cfg.Ways {
					delete(must, k)
				} else {
					must[k] = age + n
				}
			}
		}
	}

	// May half: exactly the lines the call can allocate become possibly
	// cached; every caller block the callee provably cannot fetch keeps
	// its always-miss eligibility.
	fills := len(s.FillSpans) > 0
	for _, k := range fs.allKeys {
		switch {
		case s.Uncertain:
			// Unnameable traffic: fall back to the coarse reachability
			// rule (everything except provably private frame state).
			if k.kind == kGlobal || k.kind == kPseudo || (k.kind == kFrame && k.obj.AddrTaken) {
				may.in[k] = true
			}
		case k.kind == kGlobal:
			if s.MayFillLine(k.line) {
				may.in[k] = true
			}
		case k.kind == kPseudo:
			// The pseudo-block's register may name one of the freshly
			// cached globals.
			if fills {
				may.in[k] = true
			}
		}
	}
	if s.Uncertain || fills || s.Private > 0 {
		may.unknown = true
	}
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
