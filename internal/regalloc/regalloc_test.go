package regalloc

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irinterp"
	"repro/internal/parser"
	"repro/internal/progen"
	"repro/internal/refint"
	"repro/internal/sem"
)

// testTarget mimics the UM32 allocatable set: 8 caller-saved (t0-t7 =
// 8..15) and 8 callee-saved (s0-s7 = 16..23).
var testTarget = Target{
	CallerSaved: []int{8, 9, 10, 11, 12, 13, 14, 15},
	CalleeSaved: []int{16, 17, 18, 19, 20, 21, 22, 23},
}

// tinyTarget forces spilling.
var tinyTarget = Target{
	CallerSaved: []int{8, 9},
	CalleeSaved: []int{16},
}

// e8Targets are the palettes of the register-pressure experiment (E8):
// 4, 8 and 16 registers, half caller-saved, half callee-saved. The last
// one is testTarget.
var e8Targets = []Target{
	{CallerSaved: []int{8, 9}, CalleeSaved: []int{16, 17}},
	{CallerSaved: []int{8, 9, 10, 11}, CalleeSaved: []int{16, 17, 18, 19}},
	testTarget,
}

func build(t testing.TB, src string) *ir.Program {
	t.Helper()
	return buildWith(t, src, irgen.Options{})
}

func buildWith(t testing.TB, src string, opt irgen.Options) *ir.Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	prog, err := irgen.BuildWithOptions(info, opt)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	return prog
}

func allocAll(t *testing.T, prog *ir.Program, tgt Target, strat Strategy) map[string]*Allocation {
	t.Helper()
	out := make(map[string]*Allocation)
	for _, f := range prog.Funcs {
		dataflow.SplitWebs(f)
		a, err := Allocate(f, tgt, strat)
		if err != nil {
			t.Fatalf("allocate %s: %v", f.Name, err)
		}
		if err := f.Verify(); err != nil {
			t.Fatalf("verify %s after alloc: %v", f.Name, err)
		}
		out[f.Name] = a
	}
	return out
}

// checkValidColoring rebuilds the interference graph and asserts the
// assignment is a proper coloring with palette constraints respected.
func checkValidColoring(t *testing.T, f *ir.Func, a *Allocation, tgt Target) {
	t.Helper()
	g := buildGraph(f, cfg.LoopDepth(f))
	calleeSet := map[int]bool{}
	for _, c := range tgt.CalleeSaved {
		calleeSet[c] = true
	}
	for i, r := range g.nodes {
		c, ok := a.PhysOf[r]
		if !ok {
			t.Fatalf("%s: register %s not colored", f.Name, r)
		}
		for _, nb := range g.adj(i) {
			nr := g.nodes[nb]
			if nc, ok := a.PhysOf[nr]; ok && nc == c {
				t.Errorf("%s: interfering %s and %s share color %d", f.Name, r, nr, c)
			}
		}
		if g.acrossCall[i] && !calleeSet[c] {
			t.Errorf("%s: %s live across call got caller-saved color %d", f.Name, r, c)
		}
	}
}

const pressureSrc = `
int f(int a, int b) { return a * b + 1; }
void main() {
    int a; int b; int c; int d; int e;
    int g; int h; int i; int j; int k;
    a = 1; b = 2; c = 3; d = 4; e = 5;
    g = 6; h = 7; i = 8; j = 9; k = 10;
    a = f(a, b);
    print(a + b + c + d + e + g + h + i + j + k);
    print(a * b - c * d + e * g - h * i + j * k);
}
`

func TestChaitinValidColoring(t *testing.T) {
	prog := build(t, pressureSrc)
	allocs := allocAll(t, prog, testTarget, Chaitin)
	for _, f := range prog.Funcs {
		checkValidColoring(t, f, allocs[f.Name], testTarget)
	}
}

func TestUsageCountValidColoring(t *testing.T) {
	prog := build(t, pressureSrc)
	allocs := allocAll(t, prog, testTarget, UsageCount)
	for _, f := range prog.Funcs {
		checkValidColoring(t, f, allocs[f.Name], testTarget)
	}
}

func TestSpillingUnderPressure(t *testing.T) {
	prog := build(t, pressureSrc)
	allocs := allocAll(t, prog, tinyTarget, Chaitin)
	main := allocs["main"]
	if main.SpilledWebs == 0 {
		t.Error("expected spills with a 3-register palette")
	}
	checkValidColoring(t, prog.Lookup("main"), main, tinyTarget)
	// Spill refs must exist and be RefSpill.
	spillRefs := 0
	for _, ref := range prog.Lookup("main").Refs() {
		if ref.Kind == ir.RefSpill {
			spillRefs++
		}
	}
	if spillRefs == 0 {
		t.Error("no spill references in IR after spilling")
	}
}

// Semantics must be identical before and after allocation+spilling, since
// the interpreter reads spill slots through RefSpill.
func TestSpillCodePreservesSemantics(t *testing.T) {
	srcs := []string{
		pressureSrc,
		`
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
void main() { print(fib(12)); }`,
		`
int a[20];
void main() {
    int i; int s0; int s1; int s2; int s3; int s4;
    s0 = 0; s1 = 1; s2 = 2; s3 = 3; s4 = 4;
    for (i = 0; i < 20; i++) {
        a[i] = i * i;
        s0 += a[i];
        s1 += s0;
        s2 += s1 % 7;
        s3 += s2 * 2;
        s4 += s3 - s0;
    }
    print(s0); print(s1); print(s2); print(s3); print(s4);
}`,
	}
	for k, src := range srcs {
		ref := build(t, src)
		want, err := irinterp.Run(ref, irinterp.Config{})
		if err != nil {
			t.Fatalf("case %d reference run: %v", k, err)
		}
		for _, strat := range []Strategy{Chaitin, UsageCount} {
			for _, tgt := range []Target{testTarget, tinyTarget} {
				prog := build(t, src)
				for _, f := range prog.Funcs {
					dataflow.SplitWebs(f)
					if _, err := Allocate(f, tgt, strat); err != nil {
						t.Fatalf("case %d %s: %v", k, strat, err)
					}
				}
				got, err := irinterp.Run(prog, irinterp.Config{})
				if err != nil {
					t.Fatalf("case %d %s run: %v", k, strat, err)
				}
				if got.Output != want.Output {
					t.Errorf("case %d %s/%d regs: output %q, want %q",
						k, strat, tgt.Colors(), got.Output, want.Output)
				}
			}
		}
	}
}

func TestCalleeSavedTracking(t *testing.T) {
	prog := build(t, `
int f(int x) { return x + 1; }
void main() {
    int keep;
    keep = 41;
    print(f(1) + keep);
}`)
	allocs := allocAll(t, prog, testTarget, Chaitin)
	main := allocs["main"]
	if len(main.UsedCalleeSaved) == 0 {
		t.Error("keep is live across a call; a callee-saved register must be in use")
	}
	for _, c := range main.UsedCalleeSaved {
		if c < 16 || c > 23 {
			t.Errorf("UsedCalleeSaved contains non-callee register %d", c)
		}
	}
}

func TestLeafAvoidsCalleeSaved(t *testing.T) {
	prog := build(t, `
int leaf(int x, int y) { return x * y + x - y; }
void main() { print(leaf(6, 7)); }`)
	allocs := allocAll(t, prog, testTarget, Chaitin)
	leaf := allocs["leaf"]
	if len(leaf.UsedCalleeSaved) != 0 {
		t.Errorf("leaf function should use only caller-saved registers, used callee %v",
			leaf.UsedCalleeSaved)
	}
}

func TestEmptyPaletteRejected(t *testing.T) {
	prog := build(t, `void main() { print(1); }`)
	f := prog.Lookup("main")
	if _, err := Allocate(f, Target{}, Chaitin); err == nil {
		t.Error("expected error for empty palette")
	}
}

func TestAllocationIdempotentVerify(t *testing.T) {
	// Run the allocator on every function of a program with loops, calls,
	// arrays and pointers, then verify structural invariants.
	prog := build(t, `
int a[50];
int lookup(int *v, int i) { return v[i]; }
void fill(int n) {
    int i;
    for (i = 0; i < n; i++) a[i] = i * 3 % 17;
}
void main() {
    int i;
    int best;
    fill(50);
    best = 0;
    for (i = 1; i < 50; i++) {
        if (lookup(a, i) > lookup(a, best)) best = i;
    }
    print(best);
    print(a[best]);
}`)
	want, err := irinterp.Run(build(t, `
int a[50];
int lookup(int *v, int i) { return v[i]; }
void fill(int n) {
    int i;
    for (i = 0; i < n; i++) a[i] = i * 3 % 17;
}
void main() {
    int i;
    int best;
    fill(50);
    best = 0;
    for (i = 1; i < 50; i++) {
        if (lookup(a, i) > lookup(a, best)) best = i;
    }
    print(best);
    print(a[best]);
}`), irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	allocAll(t, prog, tinyTarget, Chaitin)
	got, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Output != want.Output {
		t.Errorf("output %q, want %q", got.Output, want.Output)
	}
}

// Property: on arbitrary generated programs, both strategies produce valid
// colorings under several palettes (rebuild the interference graph after
// allocation and check no adjacent pair shares a color, and call-crossing
// values take callee-saved colors).
func TestRandomProgramsColorValidly(t *testing.T) {
	palettes := []Target{testTarget, tinyTarget,
		{CallerSaved: []int{8, 9, 10}, CalleeSaved: []int{16, 17, 18}}}
	for seed := int64(700); seed < 720; seed++ {
		src := progen.Source(seed, progen.DefaultKnobs())
		for _, tgt := range palettes {
			for _, strat := range []Strategy{Chaitin, UsageCount} {
				prog := build(t, src)
				for _, f := range prog.Funcs {
					dataflow.SplitWebs(f)
					a, err := Allocate(f, tgt, strat)
					if err != nil {
						t.Fatalf("seed %d %s/%d regs %s: %v",
							seed, strat, tgt.Colors(), f.Name, err)
					}
					checkValidColoring(t, f, a, tgt)
				}
			}
		}
	}
}

func TestTargetRegisterOutOfRangeRejected(t *testing.T) {
	prog := build(t, `void main() { print(1); }`)
	f := prog.Lookup("main")
	for _, tgt := range []Target{
		{CallerSaved: []int{8, 64}, CalleeSaved: []int{16}},
		{CallerSaved: []int{8}, CalleeSaved: []int{-1}},
	} {
		if _, err := Allocate(f, tgt, Chaitin); err == nil {
			t.Errorf("expected error for palette %v", tgt)
		}
	}
	if _, err := Allocate(f, Target{CallerSaved: []int{0, 63}}, Chaitin); err != nil {
		t.Errorf("registers 0 and 63 rejected: %v", err)
	}
}

func TestUnknownStrategyRejected(t *testing.T) {
	prog := build(t, `void main() { print(1); }`)
	if _, err := Allocate(prog.Lookup("main"), testTarget, Strategy(2)); err == nil {
		t.Error("expected error for an unknown strategy")
	}
}

// allocationDiff reports how two allocations of the same function differ,
// if they do: in the coloring, the spill and round counts, the callee-saved
// set, the spill slots or the rewritten IR.
func allocationDiff(f, g *ir.Func, a, b *Allocation, errA, errB error) string {
	switch {
	case errA != nil || errB != nil:
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			return fmt.Sprintf("error %v, oracle %v", errA, errB)
		}
	case !maps.Equal(a.PhysOf, b.PhysOf):
		return fmt.Sprintf("colors %v, oracle %v", a.PhysOf, b.PhysOf)
	case a.SpilledWebs != b.SpilledWebs || a.Iterations != b.Iterations:
		return fmt.Sprintf("%d spills in %d rounds, oracle %d in %d",
			a.SpilledWebs, a.Iterations, b.SpilledWebs, b.Iterations)
	case !slices.Equal(a.UsedCalleeSaved, b.UsedCalleeSaved):
		return fmt.Sprintf("callee-saved %v, oracle %v", a.UsedCalleeSaved, b.UsedCalleeSaved)
	case f.SpillSlots != g.SpillSlots || !maps.Equal(f.ParamSpillSlot, g.ParamSpillSlot):
		return fmt.Sprintf("slots %d %v, oracle %d %v", f.SpillSlots, f.ParamSpillSlot, g.SpillSlots, g.ParamSpillSlot)
	case a.SpilledWebs > 0:
		// Without spills neither allocator rewrites the IR.
		if fs, gs := f.String(), g.String(); fs != gs {
			return fmt.Sprintf("IR\n%s\noracle IR\n%s", fs, gs)
		}
	}
	return ""
}

// TestAllocateMatchesMapOracle requires the dense allocator to make the
// same decisions as the map-based one it replaced (allocateOracle): the
// same colors, spills, rounds, callee-saved set and rewritten IR, for both
// strategies, stack scalars on and off, and the palettes of testTarget,
// tinyTarget and E8. Programs are the six benchmarks and the generated
// ScaleKnobs(1) programs of seeds 1..24 (1..6 under -short or the race
// detector).
func TestAllocateMatchesMapOracle(t *testing.T) {
	n := 24
	if testing.Short() || raceEnabled {
		n = 6
	}
	type program struct{ name, src string }
	var progs []program
	for _, b := range bench.All() {
		progs = append(progs, program{b.Name, b.Source})
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		progs = append(progs, program{fmt.Sprintf("progen-%d", seed), progen.Source(seed, progen.ScaleKnobs(1))})
	}
	targets := append([]Target{tinyTarget}, e8Targets...)
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for _, stack := range []bool{false, true} {
				prog := buildWith(t, p.src, irgen.Options{StackScalars: stack})
				for _, in := range prog.Funcs {
					dataflow.SplitWebs(in)
					for _, strat := range []Strategy{Chaitin, UsageCount} {
						for _, tgt := range targets {
							f, g := cloneFunc(in), cloneFunc(in)
							a, errA := Allocate(f, tgt, strat)
							b, errB := allocateOracle(g, tgt, strat)
							if diff := allocationDiff(f, g, a, b, errA, errB); diff != "" {
								t.Fatalf("stack scalars %v, %s, %d registers, %s: %s",
									stack, strat, tgt.Colors(), f.Name, diff)
							}
						}
					}
				}
			}
		})
	}
}

// cloneFunc copies f's blocks, instructions and references, so that two
// allocators can rewrite the same input independently.
func cloneFunc(f *ir.Func) *ir.Func {
	c := *f
	c.Params = slices.Clone(f.Params)
	c.ParamSpillSlot = maps.Clone(f.ParamSpillSlot)
	c.Blocks = make([]*ir.Block, len(f.Blocks))
	to := make(map[*ir.Block]*ir.Block, len(f.Blocks))
	for i, b := range f.Blocks {
		c.Blocks[i] = &ir.Block{ID: b.ID, Instrs: slices.Clone(b.Instrs)}
		to[b] = c.Blocks[i]
	}
	remap := func(bs []*ir.Block) []*ir.Block {
		out := make([]*ir.Block, len(bs))
		for i, b := range bs {
			out[i] = to[b]
		}
		return out
	}
	for i, b := range f.Blocks {
		nb := c.Blocks[i]
		nb.Preds, nb.Succs = remap(b.Preds), remap(b.Succs)
		for k := range nb.Instrs {
			in := &nb.Instrs[k]
			in.Then, in.Else = to[in.Then], to[in.Else]
			if in.Ref != nil {
				ref := *in.Ref
				in.Ref = &ref
			}
		}
	}
	return &c
}

// TestBuildGraphBytesLinear requires buildGraph to allocate in proportion
// to the webs and edges, not to their square. A straight-line main of
// short-lived values has thousands of webs and a sparse graph; a structure
// of n² bits over its nodes would cost n²/8 bytes.
func TestBuildGraphBytesLinear(t *testing.T) {
	var src strings.Builder
	src.WriteString("void main() {\n\tint x;\n\tx = 0;\n")
	for range 4000 {
		src.WriteString("\tx = x + 1;\n")
	}
	src.WriteString("\tprint(x);\n}\n")
	f := build(t, src.String()).Lookup("main")
	dataflow.SplitWebs(f)
	depth := cfg.LoopDepth(f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := buildGraph(f, depth)
	runtime.ReadMemStats(&after)
	n, e := len(g.nodes), len(g.adjList)/2
	if n < 4000 || e > 4*n {
		t.Fatalf("want at least 4000 webs and a sparse graph, got %d webs and %d edges", n, e)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d webs, %d edges, %d bytes", n, e, bytes)
	if limit := uint64(128 * (f.NReg + n + e)); bytes > limit {
		t.Errorf("buildGraph allocated %d bytes on %d webs and %d edges, want at most %d",
			bytes, n, e, limit)
	}
}

// TestColorAllocsIndependentOfSize requires color to allocate a fixed
// number of slices per call, whatever the node count: no map and no
// palette per node.
func TestColorAllocsIndependentOfSize(t *testing.T) {
	// The first generated function with 40 to 200 webs, then the first
	// with at least twice its webs; both color without spilling.
	var graphs []*graph
	for seed := int64(1); seed < 200 && len(graphs) < 2; seed++ {
		prog := build(t, progen.Source(seed, progen.ScaleKnobs(1)))
		for _, f := range prog.Funcs {
			dataflow.SplitWebs(f)
			g := buildGraph(f, cfg.LoopDepth(f))
			n := len(g.nodes)
			fits := n >= 40 && n <= 200
			if len(graphs) == 1 {
				fits = n >= 2*len(graphs[0].nodes)
			}
			if _, spilled := color(g, testTarget, Chaitin); fits && len(graphs) < 2 && spilled == nil {
				graphs = append(graphs, g)
			}
		}
	}
	if len(graphs) < 2 {
		t.Fatal("no pair of generated functions with 40 to 200 and twice as many webs")
	}
	for _, strat := range []Strategy{Chaitin, UsageCount} {
		var allocs [2]float64
		for k, g := range graphs {
			allocs[k] = testing.AllocsPerRun(10, func() { color(g, testTarget, strat) })
		}
		if allocs[0] != allocs[1] || allocs[1] > 5 {
			t.Errorf("%s: color allocates %v times on %d webs and %v on %d, want the same count, at most 5",
				strat, allocs[0], len(graphs[0].nodes), allocs[1], len(graphs[1].nodes))
		}
	}
}

// BenchmarkAllocateProgen splits webs and allocates registers in every
// function of BenchmarkExactProgen's 12 generated programs (ScaleKnobs(1),
// the first seeds the reference interpreter runs), with stack scalars as
// that benchmark compiles them.
func BenchmarkAllocateProgen(b *testing.B) {
	var srcs []string
	for seed := int64(1); len(srcs) < 12; seed++ {
		file := progen.Generate(seed, progen.ScaleKnobs(1))
		if _, err := refint.Run(file, refint.Config{}); err != nil {
			continue
		}
		srcs = append(srcs, ast.Print(file))
	}
	opt := irgen.Options{StackScalars: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		progs := make([]*ir.Program, len(srcs))
		for k, src := range srcs {
			progs[k] = buildWith(b, src, opt)
		}
		b.StartTimer()
		for _, prog := range progs {
			for _, f := range prog.Funcs {
				dataflow.SplitWebs(f)
				if _, err := Allocate(f, testTarget, Chaitin); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
