// Package regalloc implements graph-coloring register allocation in the
// style of Chaitin [ChA81][Cha82], the allocator the paper's unified model
// builds on, plus a Freiburghouse usage-count allocator [Fre74] as the
// comparative baseline.
//
// Allocation runs after web splitting, so each virtual register is one
// value (one web). Values live across calls are restricted to callee-saved
// colors. Spill code follows §4.2 of the paper: the spill store goes
// *through the cache* (AmSp_STORE) and each reload is a UmAm_LOAD whose
// final occurrence kills the cached copy; internal/core assigns those bits,
// this package only materializes the loads/stores with RefSpill references.
package regalloc

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Strategy selects the coloring heuristic.
type Strategy int

// Allocation strategies.
const (
	// Chaitin is simplify/select graph coloring with Briggs-style
	// optimistic push and cost/degree spill choice.
	Chaitin Strategy = iota
	// UsageCount greedily colors webs in decreasing reference-frequency
	// order (Freiburghouse), spilling whatever does not fit.
	UsageCount
)

func (s Strategy) String() string {
	if s == UsageCount {
		return "usage-count"
	}
	return "chaitin"
}

// Target describes the allocatable physical registers.
type Target struct {
	CallerSaved []int // clobbered by calls
	CalleeSaved []int // preserved by calls
}

// Colors returns the full palette size.
func (t Target) Colors() int { return len(t.CallerSaved) + len(t.CalleeSaved) }

// Allocation is the result of register allocation for one function.
type Allocation struct {
	F        *ir.Func
	Strategy Strategy

	// PhysOf maps every live virtual register to a physical register.
	PhysOf map[ir.Reg]int

	// UsedCalleeSaved lists callee-saved registers the function writes
	// (prologue/epilogue must save and restore them).
	UsedCalleeSaved []int

	// SpilledWebs counts webs sent to stack slots.
	SpilledWebs int

	// Iterations is how many build/color rounds ran.
	Iterations int
}

const maxRounds = 40

// maxColor bounds the physical register numbers a Target may name: select
// keeps the colors of a node's neighbours in one 64-bit mask.
const maxColor = 64

// Allocate colors f's virtual registers. The function is modified in place
// when spill code is required. Call dataflow.SplitWebs(f) first for
// value-grained live ranges.
func Allocate(f *ir.Func, tgt Target, strat Strategy) (*Allocation, error) {
	if tgt.Colors() == 0 {
		return nil, fmt.Errorf("regalloc: empty register palette")
	}
	if strat != Chaitin && strat != UsageCount {
		return nil, fmt.Errorf("regalloc: unknown strategy %d", int(strat))
	}
	for _, regs := range [2][]int{tgt.CallerSaved, tgt.CalleeSaved} {
		for _, c := range regs {
			if c < 0 || c >= maxColor {
				return nil, fmt.Errorf("regalloc: register %d outside [0, %d)", c, maxColor)
			}
		}
	}
	res := &Allocation{F: f, Strategy: strat}
	// Spill code rewrites instructions, never blocks or edges, so the loop
	// depths hold for every round; liveness does not and is rebuilt.
	depth := cfg.LoopDepth(f)
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("regalloc: %s did not converge after %d rounds", f.Name, maxRounds)
		}
		res.Iterations = round + 1
		g := buildGraph(f, depth)
		colorOf, spilled := color(g, tgt, strat)
		if len(spilled) == 0 {
			res.PhysOf = make(map[ir.Reg]int, len(g.nodes))
			var used uint64
			for i, r := range g.nodes {
				res.PhysOf[r] = colorOf[i]
				used |= 1 << colorOf[i]
			}
			res.UsedCalleeSaved = usedCalleeSaved(used, tgt)
			return res, nil
		}
		res.SpilledWebs += len(spilled)
		insertSpillCode(f, spilled)
	}
}

// ---- interference graph ----

// graph is the interference graph of one round. Nodes are numbered in
// discovery order, which breaks simplify's ties; node i's neighbours are
// adjList[adjOff[i]:adjOff[i+1]], without duplicates and in no set order
// (simplify and select do not depend on it).
type graph struct {
	nodes      []ir.Reg  // live virtual registers
	adjOff     []int32   // CSR offsets, len(nodes)+1
	adjList    []int32   // CSR neighbour lists
	cost       []float64 // spill cost (10^loopdepth per reference)
	acrossCall []bool    // must take a callee-saved color
	noSpill    []bool    // spill temporaries must not re-spill
}

// adj returns node i's neighbours.
func (g *graph) adj(i int) []int32 { return g.adjList[g.adjOff[i]:g.adjOff[i+1]] }

func buildGraph(f *ir.Func, depth []int) *graph {
	lv := dataflow.ComputeLiveness(f)
	g := &graph{}
	index := make([]int32, f.NReg) // reg -> node, -1 when not a node
	for r := range index {
		index[r] = -1
	}

	touch := func(r ir.Reg) int32 {
		if i := index[r]; i >= 0 {
			return i
		}
		i := int32(len(g.nodes))
		index[r] = i
		g.nodes = append(g.nodes, r)
		g.cost = append(g.cost, 0)
		g.acrossCall = append(g.acrossCall, false)
		g.noSpill = append(g.noSpill, false)
		return i
	}
	// Edges are collected as pairs, duplicates included; link dedups them
	// once every node is known.
	var edges []int32
	addEdge := func(a, b int32) {
		if a != b {
			edges = append(edges, a, b)
		}
	}

	// Ensure parameters are nodes even if unused; parameters spilled to a
	// slot never materialize in a register and are excluded.
	for i, p := range f.Params {
		if _, spilledParam := f.ParamSpillSlot[i]; !spilledParam {
			touch(p)
		}
	}

	// Values live into the entry block (parameters and anything upward
	// exposed) hold distinct incoming values simultaneously; they interfere
	// pairwise even though no instruction defines them.
	entryLive := lv.In[f.Entry().ID].Elems()
	for i := 0; i < len(entryLive); i++ {
		for j := i + 1; j < len(entryLive); j++ {
			addEdge(touch(ir.Reg(entryLive[i])), touch(ir.Reg(entryLive[j])))
		}
	}

	var scratch []ir.Reg
	for _, b := range f.Blocks {
		w := 1.0
		for i := 0; i < depth[b.ID]; i++ {
			w *= 10
		}
		lv.WalkBackward(b, func(_ int, in *ir.Instr, liveAfter dataflow.BitSet) {
			d := in.Def()
			if d != ir.NoReg {
				di := touch(d)
				g.cost[di] += w
				if in.Ref != nil && in.Ref.Kind == ir.RefSpill {
					g.noSpill[di] = true
				}
				// The def interferes with everything live after it, except
				// itself and, for a copy, the source (they may share).
				var copySrc ir.Reg = ir.NoReg
				if in.Op == ir.OpCopy {
					copySrc = in.A
				}
				liveAfter.ForEach(func(ri int) {
					r := ir.Reg(ri)
					if r == d || r == copySrc {
						return
					}
					addEdge(di, touch(r))
				})
			}
			scratch = in.AppendUses(scratch[:0])
			for _, u := range scratch {
				ui := touch(u)
				g.cost[ui] += w
				if in.Ref != nil && in.Ref.Kind == ir.RefSpill && in.Op == ir.OpStore && u == in.B {
					g.noSpill[ui] = true
				}
			}
			if in.Op == ir.OpCall {
				liveAfter.ForEach(func(ri int) {
					r := ir.Reg(ri)
					if r == in.Dst {
						return
					}
					g.acrossCall[touch(r)] = true
				})
			}
		})
	}
	// Parameters arrive in caller-saved argument registers but are moved
	// into their colors at entry, so they do not need callee-saved colors
	// unless live across a call, which the walk above already detected.
	g.link(edges)
	return g
}

// link lays the collected edge pairs out as CSR adjacency in O(n + pairs)
// time and memory: a counting sort puts each pair's two entries in their
// rows, then each row drops its repeats in place.
func (g *graph) link(edges []int32) {
	n := len(g.nodes)
	off := make([]int32, n+1)
	for _, a := range edges {
		off[a+1]++
	}
	for i := range n {
		off[i+1] += off[i]
	}
	list := make([]int32, len(edges))
	next := slices.Clone(off[:n])
	for k := 0; k < len(edges); k += 2 {
		a, b := edges[k], edges[k+1]
		list[next[a]] = b
		next[a]++
		list[next[b]] = a
		next[b]++
	}
	// last[nb] == i once row i holds nb. Rows shrink toward the front, so
	// the write cursor never passes the entries still to be read.
	last := next
	for i := range last {
		last[i] = -1
	}
	w := int32(0)
	for i := range n {
		start, end := off[i], off[i+1]
		off[i] = w
		for _, nb := range list[start:end] {
			if last[nb] != int32(i) {
				last[nb] = int32(i)
				list[w] = nb
				w++
			}
		}
	}
	off[n] = w
	g.adjOff, g.adjList = off, list[:w]
}

// paletteSize returns how many colors node i may take.
func (g *graph) paletteSize(i int, tgt Target) int {
	if g.acrossCall[i] {
		return len(tgt.CalleeSaved)
	}
	return tgt.Colors()
}

// ---- coloring ----

// color returns every node's color, or the webs to spill in select order.
func color(g *graph, tgt Target, strat Strategy) (colorOf []int, spilled []ir.Reg) {
	n := len(g.nodes)
	if n == 0 {
		return nil, nil
	}
	order := make([]int, 0, n)

	switch strat {
	case Chaitin:
		removed := make([]bool, n)
		degree := make([]int, n)
		// Bit i of eligible is set while node i is not removed and has
		// degree < palette size; no word below lo has a set bit.
		eligible := make([]uint64, (n+63)/64)
		lo := 0
		for i := range degree {
			degree[i] = int(g.adjOff[i+1] - g.adjOff[i])
			if degree[i] < g.paletteSize(i, tgt) {
				eligible[i/64] |= 1 << (i % 64)
			}
		}
		for range n {
			// Simplify: remove the lowest-index eligible node.
			found := -1
			for ; lo < len(eligible); lo++ {
				if x := eligible[lo]; x != 0 {
					found = lo*64 + bits.TrailingZeros64(x)
					break
				}
			}
			if found == -1 {
				// Blocked: pick the cheapest spill candidate but push it
				// optimistically (Briggs); real spill happens only if
				// select cannot color it.
				best, bestScore := -1, 0.0
				for i := 0; i < n; i++ {
					if removed[i] || g.noSpill[i] {
						continue
					}
					score := g.cost[i] / float64(degree[i]+1)
					if best == -1 || score < bestScore {
						best, bestScore = i, score
					}
				}
				if best == -1 {
					// Everything left is unspillable; force the densest.
					for i := 0; i < n; i++ {
						if !removed[i] {
							best = i
							break
						}
					}
				}
				found = best
			}
			removed[found] = true
			eligible[found/64] &^= 1 << (found % 64)
			order = append(order, found)
			for _, nb := range g.adj(found) {
				if removed[nb] {
					continue
				}
				degree[nb]--
				if degree[nb] < g.paletteSize(int(nb), tgt) {
					eligible[nb/64] |= 1 << (nb % 64)
					lo = min(lo, int(nb)/64)
				}
			}
		}
		// Select order: reverse of removal.
		slices.Reverse(order)
	case UsageCount:
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
		slices.SortStableFunc(order, func(a, b int) int {
			// Spill temporaries first: they are mandatory short ranges.
			if g.noSpill[a] != g.noSpill[b] {
				if g.noSpill[a] {
					return -1
				}
				return 1
			}
			return cmp.Compare(g.cost[b], g.cost[a])
		})
	}

	colorOf = make([]int, n)
	for i := range colorOf {
		colorOf[i] = -1
	}
	nspill := 0
	for _, i := range order {
		var used uint64
		for _, nb := range g.adj(i) {
			if c := colorOf[nb]; c >= 0 {
				used |= 1 << c
			}
		}
		// Cheapest first: caller-saved before callee-saved for values not
		// live across calls, so leaf paths avoid prologue save/restore
		// traffic; values live across a call take callee-saved only.
		c := -1
		if !g.acrossCall[i] {
			c = firstFree(tgt.CallerSaved, used)
		}
		if c == -1 {
			c = firstFree(tgt.CalleeSaved, used)
		}
		if c == -1 {
			nspill++
		}
		colorOf[i] = c
	}
	if nspill == 0 {
		return colorOf, nil
	}
	spilled = make([]ir.Reg, 0, nspill)
	for _, i := range order {
		if colorOf[i] == -1 {
			spilled = append(spilled, g.nodes[i])
		}
	}
	return nil, spilled
}

// firstFree returns the first register of regs whose bit in used is clear,
// or -1.
func firstFree(regs []int, used uint64) int {
	for _, c := range regs {
		if used&(1<<c) == 0 {
			return c
		}
	}
	return -1
}

// usedCalleeSaved lists, ascending, the callee-saved registers among the
// colors whose bits are set in used.
func usedCalleeSaved(used uint64, tgt Target) []int {
	var callee uint64
	for _, c := range tgt.CalleeSaved {
		callee |= 1 << c
	}
	var out []int
	for m := used & callee; m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros64(m))
	}
	return out
}

// ---- spill code ----

// insertSpillCode rewrites f so each web in spills lives in a stack slot:
// a store after every def, a reload into a fresh temporary before every
// use. The MemRefs are RefSpill; bypass/last bits are assigned later by the
// unified-management pass.
func insertSpillCode(f *ir.Func, spills []ir.Reg) {
	// slotOf covers the registers that exist now; the temporaries made
	// below are never spilled in this round.
	slotOf := make([]int, f.NReg)
	for r := range slotOf {
		slotOf[r] = -1
	}
	for _, r := range spills {
		slotOf[r] = f.SpillSlots
		f.SpillSlots++
	}

	// Parameters: a spilled parameter web is recorded on the function so
	// the prologue stores the incoming value straight to its slot; the
	// parameter register itself disappears from the body (all its uses
	// become reloads) and needs no color.
	for i, p := range f.Params {
		if slot := slotOf[p]; slot >= 0 {
			if f.ParamSpillSlot == nil {
				f.ParamSpillSlot = make(map[int]int)
			}
			f.ParamSpillSlot[i] = slot
		}
	}

	var scratch []ir.Reg
	var reloaded [][2]ir.Reg // one instruction's (spilled use, temporary) pairs
	reload := func(r ir.Reg) ir.Reg {
		for _, p := range reloaded {
			if p[0] == r {
				return p[1]
			}
		}
		return r
	}
	for _, b := range f.Blocks {
		var out []ir.Instr
		for i := range b.Instrs {
			in := b.Instrs[i]

			// Reload each spilled use into its own temporary.
			scratch = in.AppendUses(scratch[:0])
			reloaded = reloaded[:0]
			for _, u := range scratch {
				slot := slotOf[u]
				if slot < 0 || reload(u) != u {
					continue
				}
				tmp := f.NewReg()
				reloaded = append(reloaded, [2]ir.Reg{u, tmp})
				out = append(out, ir.Instr{
					Op: ir.OpLoad, Dst: tmp, A: ir.NoReg,
					Ref: &ir.MemRef{Kind: ir.RefSpill, Slot: slot, AliasSet: -1},
					Pos: in.Pos,
				})
			}
			if len(reloaded) > 0 {
				in.MapUses(reload)
			}

			// Redirect a spilled def into a temporary and store it.
			if d := in.Def(); d != ir.NoReg {
				if slot := slotOf[d]; slot >= 0 {
					tmp := f.NewReg()
					in.Dst = tmp
					out = append(out, in)
					out = append(out, ir.Instr{
						Op: ir.OpStore, A: ir.NoReg, B: tmp,
						Ref: &ir.MemRef{Kind: ir.RefSpill, Slot: slot, AliasSet: -1},
						Pos: in.Pos,
					})
					continue
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	f.Renumber()
}
