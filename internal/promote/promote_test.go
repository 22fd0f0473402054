package promote_test

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irinterp"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/progen"
	"repro/internal/promote"
	"repro/internal/sem"
	"repro/internal/vm"
)

// buildAnnotated compiles through irgen + webs + alias annotation, the
// state promote.Run expects.
func buildAnnotated(t *testing.T, src string) (*ir.Program, *alias.Analysis) {
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
	for _, fn := range prog.Funcs {
		dataflow.SplitWebs(fn)
	}
	an := alias.Analyze(info)
	an.Annotate(prog)
	return prog, an
}

func TestPromotesCallFreeLoopGlobal(t *testing.T) {
	src := `
int counter;
void main() {
    int i;
    for (i = 0; i < 100; i++) {
        counter = counter + i;
    }
    print(counter);
}`
	prog, an := buildAnnotated(t, src)
	st := promote.Run(prog, an)
	if st.PromotedGlobals != 1 {
		t.Fatalf("promoted = %d, want 1", st.PromotedGlobals)
	}
	if st.RewrittenRefs < 2 {
		t.Errorf("rewritten refs = %d, want >= 2", st.RewrittenRefs)
	}
	// Exactly one load and one store of counter remain (entry/exit).
	main := prog.Lookup("main")
	loads, stores := 0, 0
	for _, b := range main.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Ref != nil && in.Ref.Obj != nil && in.Ref.Obj.Name == "counter" {
				if in.Op == ir.OpLoad {
					loads++
				} else {
					stores++
				}
			}
		}
	}
	if loads != 1 || stores != 1 {
		t.Errorf("counter refs after promotion: %d loads, %d stores; want 1 and 1\n%s",
			loads, stores, main)
	}
	if err := main.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	res, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "4950\n" {
		t.Errorf("output = %q, want 4950", res.Output)
	}
}

func TestDoesNotPromoteAcrossTouchingCalls(t *testing.T) {
	src := `
int shared;
void bump() { shared = shared + 1; }
void main() {
    int i;
    for (i = 0; i < 10; i++) {
        shared = shared + 1;
        bump();
    }
    print(shared);
}`
	prog, an := buildAnnotated(t, src)
	promote.Run(prog, an)
	// main calls bump which touches shared: shared must not be promoted in
	// main (bump would see a stale memory copy). It may be promoted in
	// bump (leaf).
	res, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "20\n" {
		t.Errorf("output = %q, want 20 (promotion across touching call is unsound)", res.Output)
	}
}

func TestDoesNotPromoteAmbiguousGlobals(t *testing.T) {
	src := `
int g1;
int g2;
void set(int *p, int v) { *p = v; }
void main() {
    set(&g1, 4);
    set(&g2, 5);
    print(g1 + g2);
}`
	prog, an := buildAnnotated(t, src)
	st := promote.Run(prog, an)
	if st.PromotedGlobals != 0 {
		t.Errorf("promoted %d aliased globals", st.PromotedGlobals)
	}
	res, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "9\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestRecursiveSelfTouchExcluded(t *testing.T) {
	src := `
int depth;
int walk(int n) {
    depth = depth + 1;
    if (n <= 0) return depth;
    return walk(n - 1);
}
void main() { print(walk(5)); }`
	prog, an := buildAnnotated(t, src)
	promote.Run(prog, an)
	res, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "6\n" {
		t.Errorf("output = %q, want 6", res.Output)
	}
}

// Full-pipeline semantics: every benchmark and fuzzed program must produce
// identical output with and without promotion, on both the interpreter and
// the simulator.
func TestPromotionPreservesSemantics(t *testing.T) {
	var srcs []string
	for _, b := range bench.All() {
		srcs = append(srcs, b.Source)
	}
	for seed := int64(100); seed < 120; seed++ {
		srcs = append(srcs, progen.Source(seed, progen.DefaultKnobs()))
	}
	for i, src := range srcs {
		base, err := core.Compile(src, core.Config{Mode: core.Unified})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want, err := irinterp.Run(base.Prog, irinterp.Config{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		promoted, err := core.Compile(src, core.Config{Mode: core.Unified, PromoteGlobals: true})
		if err != nil {
			t.Fatalf("case %d promoted: %v", i, err)
		}
		got, err := irinterp.Run(promoted.Prog, irinterp.Config{})
		if err != nil {
			t.Fatalf("case %d promoted run: %v", i, err)
		}
		if got.Output != want.Output {
			t.Fatalf("case %d: promotion changed output\nwant %q\ngot  %q", i, want.Output, got.Output)
		}
		mprog, err := codegen.Generate(promoted)
		if err != nil {
			t.Fatalf("case %d codegen: %v", i, err)
		}
		res, err := vm.Run(mprog, vm.Config{Cache: cache.DefaultConfig()})
		if err != nil {
			t.Fatalf("case %d vm: %v", i, err)
		}
		if res.Output != want.Output {
			t.Fatalf("case %d: vm output diverged after promotion\nwant %q\ngot  %q",
				i, want.Output, res.Output)
		}
	}
}

func trafficOf(t *testing.T, src string, cfg core.Config) int64 {
	t.Helper()
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
	return res.CacheStats.MemTrafficWords(1)
}

// Promotion must never regress DRAM traffic on any benchmark: the
// profitability heuristic skips cases like towers, whose hot globals are
// updated inside leaf functions reached through recursion and therefore
// cannot be promoted at function granularity (the remaining gap between
// the paper's register vision and per-function promotion).
func TestPromotionNeverRegressesBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		plain := trafficOf(t, b.Source, core.Config{Mode: core.Unified})
		promoted := trafficOf(t, b.Source, core.Config{Mode: core.Unified, PromoteGlobals: true})
		if promoted > plain {
			t.Errorf("%s: promotion regressed traffic %d -> %d", b.Name, plain, promoted)
		}
		t.Logf("%-8s unified DRAM words: %8d plain, %8d promoted", b.Name, plain, promoted)
	}
}

// On a call-free counter loop — the pattern the paper's "series of
// operations" phrasing describes — promotion must collapse the per-
// iteration bypass traffic to a single load/store pair.
func TestPromotionSlashesHotLoopTraffic(t *testing.T) {
	src := `
int accum;
int steps;
void main() {
    int i;
    for (i = 0; i < 10000; i++) {
        accum = accum + i;
        steps = steps + 1;
    }
    print(accum);
    print(steps);
}`
	plain := trafficOf(t, src, core.Config{Mode: core.Unified})
	promoted := trafficOf(t, src, core.Config{Mode: core.Unified, PromoteGlobals: true})
	if promoted*100 > plain {
		t.Errorf("promotion too weak: %d -> %d (want >100x reduction)", plain, promoted)
	}
	t.Logf("hot-loop unified DRAM words: %d plain, %d promoted", plain, promoted)
}

func TestEliminateDeadCode(t *testing.T) {
	src := `
void main() {
    int x;
    x = 1;
    print(x);
}`
	prog, _ := buildAnnotated(t, src)
	main := prog.Lookup("main")
	// Inject dead instructions.
	dead1 := main.NewReg()
	dead2 := main.NewReg()
	entry := main.Entry()
	entry.Instrs = append([]ir.Instr{
		{Op: ir.OpConst, Dst: dead1, Imm: 99},
		{Op: ir.OpBin, Dst: dead2, A: dead1, B: dead1, Bin: ir.Add},
	}, entry.Instrs...)
	removed := opt.EliminateDeadCode(main)
	if removed < 2 {
		t.Errorf("removed %d, want >= 2 (chain)", removed)
	}
	if err := main.Verify(); err != nil {
		t.Fatal(err)
	}
	res, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "1\n" {
		t.Errorf("output = %q", res.Output)
	}
}
