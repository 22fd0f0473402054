package regalloc

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// This file keeps the map-based allocator the dense interference graph in
// regalloc.go replaced, as a test-only reference: a map from register to
// node, one adjacency map per node, a used-color map and a fresh palette
// per selected node, and a simplify step that rescans every node for the
// lowest-index eligible one. TestAllocateMatchesMapOracle requires both to
// make the same decisions. The code is the old production code unchanged
// apart from the names; its spill-code rewriter and callee-saved summary
// are the old map-based ones too, so the oracle shares nothing with the
// code it checks but liveness and loop depth.

// allocateOracle is Allocate over the map-based graph and coloring.
func allocateOracle(f *ir.Func, tgt Target, strat Strategy) (*Allocation, error) {
	if tgt.Colors() == 0 {
		return nil, fmt.Errorf("regalloc: empty register palette")
	}
	res := &Allocation{F: f, Strategy: strat, PhysOf: make(map[ir.Reg]int)}
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("regalloc: %s did not converge after %d rounds", f.Name, maxRounds)
		}
		res.Iterations = round + 1
		g := buildGraphOracle(f)
		spilled := colorOracle(g, tgt, strat, res)
		if len(spilled) == 0 {
			res.UsedCalleeSaved = usedCalleeSavedOracle(res, tgt)
			return res, nil
		}
		res.SpilledWebs += len(spilled)
		insertSpillCodeOracle(f, spilled)
	}
}

type oracleGraph struct {
	f          *ir.Func
	nodes      []ir.Reg       // live virtual registers
	index      map[ir.Reg]int // reg -> node index
	adj        []map[int]bool // adjacency sets
	degree     []int
	cost       []float64 // spill cost (10^loopdepth per reference)
	acrossCall []bool    // must take a callee-saved color
	noSpill    []bool    // spill temporaries must not re-spill
	moves      [][2]int  // copy-related pairs (for diagnostics)
}

func buildGraphOracle(f *ir.Func) *oracleGraph {
	lv := dataflow.ComputeLiveness(f)
	depth := cfg.LoopDepth(f)
	g := &oracleGraph{f: f, index: make(map[ir.Reg]int)}

	touch := func(r ir.Reg) int {
		if i, ok := g.index[r]; ok {
			return i
		}
		i := len(g.nodes)
		g.index[r] = i
		g.nodes = append(g.nodes, r)
		g.adj = append(g.adj, make(map[int]bool))
		g.degree = append(g.degree, 0)
		g.cost = append(g.cost, 0)
		g.acrossCall = append(g.acrossCall, false)
		g.noSpill = append(g.noSpill, false)
		return i
	}
	addEdge := func(a, b int) {
		if a == b || g.adj[a][b] {
			return
		}
		g.adj[a][b] = true
		g.adj[b][a] = true
		g.degree[a]++
		g.degree[b]++
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
				if copySrc != ir.NoReg {
					g.moves = append(g.moves, [2]int{di, touch(copySrc)})
				}
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
	return g
}

// paletteSize returns how many colors node i may take.
func (g *oracleGraph) paletteSize(i int, tgt Target) int {
	if g.acrossCall[i] {
		return len(tgt.CalleeSaved)
	}
	return tgt.Colors()
}

// palette lists the allowed colors for node i, cheapest first: caller-saved
// before callee-saved for values not live across calls, so leaf paths avoid
// prologue save/restore traffic.
func (g *oracleGraph) palette(i int, tgt Target) []int {
	if g.acrossCall[i] {
		return tgt.CalleeSaved
	}
	out := make([]int, 0, tgt.Colors())
	out = append(out, tgt.CallerSaved...)
	out = append(out, tgt.CalleeSaved...)
	return out
}

// color assigns PhysOf for all nodes or returns the webs to spill.
func colorOracle(g *oracleGraph, tgt Target, strat Strategy, res *Allocation) []ir.Reg {
	n := len(g.nodes)
	if n == 0 {
		return nil
	}
	order := make([]int, 0, n)

	switch strat {
	case Chaitin:
		removed := make([]bool, n)
		degree := append([]int(nil), g.degree...)
		var stack []int
		left := n
		for left > 0 {
			// Simplify: remove any node with degree < palette size.
			found := -1
			for i := 0; i < n; i++ {
				if !removed[i] && degree[i] < g.paletteSize(i, tgt) {
					found = i
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
			left--
			stack = append(stack, found)
			for nb := range g.adj[found] {
				if !removed[nb] {
					degree[nb]--
				}
			}
		}
		// Select order: reverse of removal.
		for i := len(stack) - 1; i >= 0; i-- {
			order = append(order, stack[i])
		}
	case UsageCount:
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
		sort.SliceStable(order, func(a, b int) bool {
			ia, ib := order[a], order[b]
			// Spill temporaries first: they are mandatory short ranges.
			if g.noSpill[ia] != g.noSpill[ib] {
				return g.noSpill[ia]
			}
			return g.cost[ia] > g.cost[ib]
		})
	}

	colorOf := make([]int, n)
	for i := range colorOf {
		colorOf[i] = -1
	}
	var spilled []ir.Reg
	for _, i := range order {
		used := make(map[int]bool)
		for nb := range g.adj[i] {
			if c := colorOf[nb]; c >= 0 {
				used[c] = true
			}
		}
		got := -1
		for _, c := range g.palette(i, tgt) {
			if !used[c] {
				got = c
				break
			}
		}
		if got == -1 {
			spilled = append(spilled, g.nodes[i])
			continue
		}
		colorOf[i] = got
	}
	if len(spilled) > 0 {
		return spilled
	}
	for i, r := range g.nodes {
		res.PhysOf[r] = colorOf[i]
	}
	return nil
}

func usedCalleeSavedOracle(res *Allocation, tgt Target) []int {
	calleeSet := make(map[int]bool, len(tgt.CalleeSaved))
	for _, c := range tgt.CalleeSaved {
		calleeSet[c] = true
	}
	seen := make(map[int]bool)
	var out []int
	for _, c := range res.PhysOf {
		if calleeSet[c] && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// insertSpillCodeOracle rewrites f so each web in spills lives in a stack slot:
// a store after every def, a reload into a fresh temporary before every
// use. The MemRefs are RefSpill; bypass/last bits are assigned later by the
// unified-management pass.
func insertSpillCodeOracle(f *ir.Func, spills []ir.Reg) {
	slotOf := make(map[ir.Reg]int, len(spills))
	for _, r := range spills {
		slotOf[r] = f.SpillSlots
		f.SpillSlots++
	}

	// Parameters: a spilled parameter web is recorded on the function so
	// the prologue stores the incoming value straight to its slot; the
	// parameter register itself disappears from the body (all its uses
	// become reloads) and needs no color.
	for i, p := range f.Params {
		if slot, ok := slotOf[p]; ok {
			if f.ParamSpillSlot == nil {
				f.ParamSpillSlot = make(map[int]int)
			}
			f.ParamSpillSlot[i] = slot
		}
	}

	var scratch []ir.Reg
	for _, b := range f.Blocks {
		var out []ir.Instr
		for i := range b.Instrs {
			in := b.Instrs[i]

			// Reload each spilled use into its own temporary.
			scratch = in.AppendUses(scratch[:0])
			reloaded := make(map[ir.Reg]ir.Reg)
			for _, u := range scratch {
				slot, ok := slotOf[u]
				if !ok {
					continue
				}
				if _, done := reloaded[u]; done {
					continue
				}
				tmp := f.NewReg()
				reloaded[u] = tmp
				out = append(out, ir.Instr{
					Op: ir.OpLoad, Dst: tmp, A: ir.NoReg,
					Ref: &ir.MemRef{Kind: ir.RefSpill, Slot: slot, AliasSet: -1},
					Pos: in.Pos,
				})
			}
			if len(reloaded) > 0 {
				in.MapUses(func(r ir.Reg) ir.Reg {
					if t, ok := reloaded[r]; ok {
						return t
					}
					return r
				})
			}

			// Redirect a spilled def into a temporary and store it.
			if d := in.Def(); d != ir.NoReg {
				if slot, ok := slotOf[d]; ok {
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
