package inline_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/inline"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irinterp"
	"repro/internal/parser"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/vm"
)

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

func TestInlinesLeafCall(t *testing.T) {
	prog := build(t, `
int sq(int x) { return x * x; }
void main() { print(sq(7)); }`)
	st := inline.Run(prog)
	if st.InlinedCalls != 1 {
		t.Fatalf("inlined = %d, want 1", st.InlinedCalls)
	}
	main := prog.Lookup("main")
	for _, b := range main.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall {
				t.Error("call survived inlining")
			}
		}
	}
	if err := main.Verify(); err != nil {
		t.Fatal(err)
	}
	// sq is unreachable now and must be gone.
	if prog.Lookup("sq") != nil {
		t.Error("dead leaf function not removed")
	}
	res, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "49\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestInlineChainInOneBlock(t *testing.T) {
	prog := build(t, `
int inc(int x) { return x + 1; }
void main() {
    int a;
    a = inc(1) + inc(10) + inc(100);
    print(a);
}`)
	st := inline.Run(prog)
	if st.InlinedCalls != 3 {
		t.Fatalf("inlined = %d, want 3", st.InlinedCalls)
	}
	if st.Rounds != 1 {
		t.Errorf("rounds = %d, want 1 (chain handled via continuation blocks)", st.Rounds)
	}
	res, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "114\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestSecondRoundInlinesNewLeaves(t *testing.T) {
	// mid calls leaf; after round 1 mid becomes a leaf itself and is
	// inlined into main in round 2.
	prog := build(t, `
int leaf(int x) { return x + 1; }
int mid(int x) { return leaf(x) * 2; }
void main() { print(mid(5)); }`)
	st := inline.Run(prog)
	if st.InlinedCalls < 2 {
		t.Fatalf("inlined = %d, want >= 2", st.InlinedCalls)
	}
	main := prog.Lookup("main")
	for _, b := range main.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall {
				t.Error("call survived two-round inlining")
			}
		}
	}
	res, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "12\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestRecursionNotInlined(t *testing.T) {
	prog := build(t, `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
void main() { print(fib(10)); }`)
	inline.Run(prog)
	if prog.Lookup("fib") == nil {
		t.Fatal("recursive function removed")
	}
	res, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "55\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestInlineDifferential(t *testing.T) {
	var srcs []string
	for _, b := range bench.All() {
		srcs = append(srcs, b.Source)
	}
	for seed := int64(500); seed < 540; seed++ {
		srcs = append(srcs, progen.Source(seed, progen.DefaultKnobs()))
	}
	for i, src := range srcs {
		plain, err := core.Compile(src, core.Config{Mode: core.Unified})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want, err := irinterp.Run(plain.Prog, irinterp.Config{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for _, cfg := range []core.Config{
			{Mode: core.Unified, Inline: true},
			{Mode: core.Unified, Inline: true, Optimize: true, PromoteGlobals: true},
			{Mode: core.Conventional, Inline: true, StackScalars: true},
		} {
			inlined, err := core.Compile(src, cfg)
			if err != nil {
				t.Fatalf("case %d %+v: %v", i, cfg, err)
			}
			got, err := irinterp.Run(inlined.Prog, irinterp.Config{})
			if err != nil {
				t.Fatalf("case %d %+v irinterp: %v", i, cfg, err)
			}
			if got.Output != want.Output {
				t.Fatalf("case %d %+v: inlining changed output\nwant %q\ngot  %q\nsource:\n%s",
					i, cfg, want.Output, got.Output, src)
			}
			mprog, err := codegen.Generate(inlined)
			if err != nil {
				t.Fatalf("case %d %+v codegen: %v", i, cfg, err)
			}
			res, err := vm.Run(mprog, vm.Config{Cache: cache.DefaultConfig()})
			if err != nil {
				t.Fatalf("case %d %+v vm: %v", i, cfg, err)
			}
			if res.Output != want.Output {
				t.Fatalf("case %d %+v: vm diverged\nwant %q\ngot  %q",
					i, cfg, want.Output, res.Output)
			}
		}
	}
}

// The payoff measurement: inlining towers' leaf functions removes the
// per-call frame traffic that dominated its unified-mode DRAM regression.
func TestInlineReducesTowersCallTraffic(t *testing.T) {
	src := bench.Get("towers").Source
	run := func(cfg core.Config) (int64, int64) {
		comp, err := core.Compile(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mprog, err := codegen.Generate(comp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := vm.Run(mprog, vm.Config{Cache: cache.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		return res.Instructions, res.CacheStats.MemTrafficWords(1)
	}
	plainInstrs, plainWords := run(core.Config{Mode: core.Unified})
	inlInstrs, inlWords := run(core.Config{Mode: core.Unified, Inline: true, Optimize: true})
	if inlInstrs >= plainInstrs {
		t.Errorf("inlining did not reduce instructions: %d -> %d", plainInstrs, inlInstrs)
	}
	t.Logf("towers: instructions %d -> %d, DRAM words %d -> %d",
		plainInstrs, inlInstrs, plainWords, inlWords)
}
