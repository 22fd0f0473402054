package regalloc

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irinterp"
	"repro/internal/parser"
	"repro/internal/progen"
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

func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	prog, err := irgen.Build(info)
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
	g := buildGraph(f)
	calleeSet := map[int]bool{}
	for _, c := range tgt.CalleeSaved {
		calleeSet[c] = true
	}
	for i, r := range g.nodes {
		c, ok := a.PhysOf[r]
		if !ok {
			t.Fatalf("%s: register %s not colored", f.Name, r)
		}
		for nb := range g.adj[i] {
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
