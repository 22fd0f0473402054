// Package core implements the paper's primary contribution: the unified
// registers/cache management model (§4).
//
// After register allocation has decided what lives in registers and what
// was spilled, every remaining memory reference is assigned one of the four
// load/store semantics of §4.3 via two bits on its MemRef:
//
//	                     Bypass  Last   paper instruction
//	ambiguous load        false   -     Am_LOAD        (through cache)
//	ambiguous store       false   -     AmSp_STORE     (through cache)
//	spill store           false   -     AmSp_STORE     (spills go to cache)
//	spill reload          true    f/t   UmAm_LOAD      (kill cached copy on
//	                                                    the final reload)
//	unambiguous load      true    true  UmAm_LOAD
//	unambiguous store     true    -     UmAm_STORE     (straight to memory)
//
// The one refinement over the paper's prose is the Last bit on spill
// reloads: §4.2 says the cached copy "becomes dead as soon as the value is
// reloaded", but with one store feeding several reloads only the final
// reload may kill the (dirty) cached copy, so the compiler marks exactly
// that one using a backward spill-slot liveness analysis. Earlier reloads
// hit in cache and leave the line alone.
package core

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Mode selects between the paper's unified management and the conventional
// baseline (every reference through the cache, no dead marking).
type Mode int

// Management modes.
const (
	Conventional Mode = iota
	Unified
)

func (m Mode) String() string {
	if m == Unified {
		return "unified"
	}
	return "conventional"
}

// ParseMode parses a management-mode name as printed by Mode.String.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "unified":
		return Unified, nil
	case "conventional":
		return Conventional, nil
	}
	return 0, fmt.Errorf("core: unknown mode %q", s)
}

// Apply assigns Bypass and Last on every memory reference of f according
// to the mode. Alias annotation (alias.Analysis.Annotate) must have run
// first so MemRef.Ambiguous is meaningful.
func Apply(f *ir.Func, mode Mode) {
	if mode == Conventional {
		for _, ref := range f.Refs() {
			ref.Bypass = false
			ref.Last = false
		}
		return
	}
	lastReloads := finalSpillReloads(f)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			ref := in.Ref
			if ref == nil {
				continue
			}
			switch {
			case ref.Kind == ir.RefSpill && in.Op == ir.OpStore:
				// AmSp_STORE: spills go to cache (§4.2 rule [2]).
				ref.Bypass = false
				ref.Last = false
			case ref.Kind == ir.RefSpill && in.Op == ir.OpLoad:
				// UmAm_LOAD: reload from cache; final reload kills the copy.
				ref.Bypass = true
				ref.Last = lastReloads[ref]
			case ref.Ambiguous:
				// Am_LOAD / AmSp_STORE.
				ref.Bypass = false
				ref.Last = false
			default:
				// Unambiguous values never live in cache: UmAm_LOAD /
				// UmAm_STORE bypass it entirely. Last is set on loads so a
				// stray cached copy (impossible under pure unified
				// management, possible in mixed-mode ablations) is killed.
				ref.Bypass = true
				ref.Last = in.Op == ir.OpLoad
			}
		}
	}
}

// Under returns s, a unified compilation's stats, as mode classifies the
// same sites: conventional mode caches every site and dead-marks none.
func (s StaticStats) Under(mode Mode) StaticStats {
	if mode == Conventional {
		s.Bypass, s.Cached, s.LastMarked = 0, s.Sites, 0
	}
	return s
}

// ApplyProgram runs Apply on every function.
func ApplyProgram(p *ir.Program, mode Mode) {
	for _, f := range p.Funcs {
		Apply(f, mode)
	}
}

// finalSpillReloads computes, via backward slot liveness, the set of spill
// reload references after which their slot is dead (no future reload can
// execute before a store to the same slot). Only those may dead-mark the
// cache line: the spill store leaves the line dirty and main memory stale,
// so killing it earlier would lose the value for later reloads.
func finalSpillReloads(f *ir.Func) map[*ir.MemRef]bool {
	out := make(map[*ir.MemRef]bool)
	n := f.SpillSlots
	if n == 0 {
		return out
	}
	nb := len(f.Blocks)
	liveIn := make([]dataflow.BitSet, nb)
	liveOut := make([]dataflow.BitSet, nb)
	use := make([]dataflow.BitSet, nb)
	def := make([]dataflow.BitSet, nb)
	for _, b := range f.Blocks {
		liveIn[b.ID] = dataflow.NewBitSet(n)
		liveOut[b.ID] = dataflow.NewBitSet(n)
		use[b.ID] = dataflow.NewBitSet(n)
		def[b.ID] = dataflow.NewBitSet(n)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Ref == nil || in.Ref.Kind != ir.RefSpill {
				continue
			}
			switch in.Op {
			case ir.OpLoad:
				if !def[b.ID].Has(in.Ref.Slot) {
					use[b.ID].Set(in.Ref.Slot)
				}
			case ir.OpStore:
				def[b.ID].Set(in.Ref.Slot)
			}
		}
	}
	rpo := cfg.ReversePostorder(f)
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			bOut := liveOut[b.ID]
			for _, s := range b.Succs {
				if bOut.UnionWith(liveIn[s.ID]) {
					changed = true
				}
			}
			newIn := bOut.Copy()
			newIn.DiffWith(def[b.ID])
			newIn.UnionWith(use[b.ID])
			if !newIn.Equal(liveIn[b.ID]) {
				liveIn[b.ID] = newIn
				changed = true
			}
		}
	}
	// Walk each block backward: a reload is final iff its slot is not live
	// just after the reload.
	for _, b := range f.Blocks {
		live := liveOut[b.ID].Copy()
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if in.Ref == nil || in.Ref.Kind != ir.RefSpill {
				continue
			}
			switch in.Op {
			case ir.OpStore:
				live.Clear(in.Ref.Slot)
			case ir.OpLoad:
				if !live.Has(in.Ref.Slot) {
					out[in.Ref] = true
				}
				live.Set(in.Ref.Slot)
			}
		}
	}
	return out
}

// StaticStats summarizes the compiler's classification of reference sites,
// the quantity Figure 5's "static" series reports.
type StaticStats struct {
	Sites        int // total load/store sites
	Loads        int
	Stores       int
	Bypass       int // sites marked to bypass the cache
	Cached       int // sites through the cache
	AmbiguousRef int // sites classified ambiguous by alias analysis
	SpillStores  int
	SpillReloads int
	LastMarked   int // sites carrying the dead-mark bit
}

// PercentBypass is the static fraction of sites that bypass the cache.
func (s StaticStats) PercentBypass() float64 {
	if s.Sites == 0 {
		return 0
	}
	return 100 * float64(s.Bypass) / float64(s.Sites)
}

// CollectStats tallies classification results over a function.
func CollectStats(f *ir.Func) StaticStats {
	var s StaticStats
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			ref := in.Ref
			if ref == nil {
				continue
			}
			s.Sites++
			if in.Op == ir.OpLoad {
				s.Loads++
			} else {
				s.Stores++
			}
			if ref.Bypass {
				s.Bypass++
			} else {
				s.Cached++
			}
			if ref.Ambiguous {
				s.AmbiguousRef++
			}
			if ref.Kind == ir.RefSpill {
				if in.Op == ir.OpStore {
					s.SpillStores++
				} else {
					s.SpillReloads++
				}
			}
			if ref.Last {
				s.LastMarked++
			}
		}
	}
	return s
}

// CollectProgramStats sums CollectStats over all functions.
func CollectProgramStats(p *ir.Program) StaticStats {
	var total StaticStats
	for _, f := range p.Funcs {
		s := CollectStats(f)
		total.Sites += s.Sites
		total.Loads += s.Loads
		total.Stores += s.Stores
		total.Bypass += s.Bypass
		total.Cached += s.Cached
		total.AmbiguousRef += s.AmbiguousRef
		total.SpillStores += s.SpillStores
		total.SpillReloads += s.SpillReloads
		total.LastMarked += s.LastMarked
	}
	return total
}
