package opt_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irinterp"
	"repro/internal/opt"
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

func countOps(f *ir.Func, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == op {
				n++
			}
		}
	}
	return n
}

func TestConstantFolding(t *testing.T) {
	prog := build(t, `void main() { print(2 + 3 * 4); }`)
	main := prog.Lookup("main")
	st := opt.Optimize(main)
	if st.FoldedConsts == 0 {
		t.Error("nothing folded")
	}
	if n := countOps(main, ir.OpBin); n != 0 {
		t.Errorf("%d binary ops remain after folding a constant expression", n)
	}
	res, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "14\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestDivisionByZeroNotFolded(t *testing.T) {
	prog := build(t, `void main() { int x; x = 0; print(10 / x); }`)
	main := prog.Lookup("main")
	opt.Optimize(main)
	// The division must survive (it traps at run time, which is the
	// program's observable behavior).
	if _, err := irinterp.Run(prog, irinterp.Config{}); err == nil {
		t.Error("expected runtime division-by-zero to be preserved")
	}
}

func TestBranchFoldingRemovesDeadArm(t *testing.T) {
	prog := build(t, `
void main() {
    if (1 < 2) print(7);
    else print(8);
}`)
	main := prog.Lookup("main")
	st := opt.Optimize(main)
	if st.FoldedBranches == 0 {
		t.Error("constant branch not folded")
	}
	if n := countOps(main, ir.OpBr); n != 0 {
		t.Errorf("%d conditional branches remain", n)
	}
	// The dead arm's print must be gone.
	if n := countOps(main, ir.OpPrint); n != 1 {
		t.Errorf("%d prints remain, want 1", n)
	}
	res, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "7\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestCopyPropagation(t *testing.T) {
	// The copy source must be non-constant (a parameter) or constant
	// folding handles it first.
	prog := build(t, `
int f(int a) {
    int b;
    b = a;
    return b + b;
}
void main() { print(f(5)); }`)
	fn := prog.Lookup("f")
	st := opt.Optimize(fn)
	if st.PropagatedUses == 0 {
		t.Error("no uses propagated")
	}
	if n := countOps(fn, ir.OpCopy); n != 0 {
		t.Errorf("%d copies remain\n%s", n, fn)
	}
	res, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "10\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestOptimizePreservesVerify(t *testing.T) {
	for _, b := range bench.All() {
		prog := build(t, b.Source)
		for _, f := range prog.Funcs {
			opt.Optimize(f)
			if err := f.Verify(); err != nil {
				t.Fatalf("%s/%s: %v", b.Name, f.Name, err)
			}
		}
	}
}

// Differential: benchmarks and fuzzed programs agree with and without the
// optimizer across the whole pipeline (interpreter and simulator).
func TestOptimizeDifferential(t *testing.T) {
	var srcs []string
	for _, b := range bench.All() {
		srcs = append(srcs, b.Source)
	}
	for seed := int64(300); seed < 340; seed++ {
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
		opted, err := core.Compile(src, core.Config{Mode: core.Unified, Optimize: true})
		if err != nil {
			t.Fatalf("case %d opt: %v", i, err)
		}
		got, err := irinterp.Run(opted.Prog, irinterp.Config{})
		if err != nil {
			t.Fatalf("case %d opt run: %v", i, err)
		}
		if got.Output != want.Output {
			t.Fatalf("case %d: optimizer changed output\nwant %q\ngot  %q\nsource:\n%s",
				i, want.Output, got.Output, src)
		}
		mprog, err := codegen.Generate(opted)
		if err != nil {
			t.Fatalf("case %d codegen: %v", i, err)
		}
		res, err := vm.Run(mprog, vm.Config{Cache: cache.DefaultConfig()})
		if err != nil {
			t.Fatalf("case %d vm: %v", i, err)
		}
		if res.Output != want.Output {
			t.Fatalf("case %d: vm diverged after optimization\nwant %q\ngot  %q",
				i, want.Output, res.Output)
		}
	}
}

// The optimizer should reduce executed instructions on real workloads.
func TestOptimizeShrinksWork(t *testing.T) {
	src := bench.Get("intmm").Source
	run := func(cfg core.Config) int64 {
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
		return res.Instructions
	}
	plain := run(core.Config{Mode: core.Unified})
	opted := run(core.Config{Mode: core.Unified, Optimize: true})
	if opted > plain {
		t.Errorf("optimizer increased instruction count: %d -> %d", plain, opted)
	}
	t.Logf("intmm instructions: %d plain, %d optimized", plain, opted)
}

func TestValueNumberingDeduplicatesAddresses(t *testing.T) {
	// a[i] read twice in one expression: the address computation must be
	// shared after LVN.
	prog := build(t, `
int a[8];
int f(int i) {
    return a[i] + a[i];
}
void main() { a[3] = 21; print(f(3)); }`)
	fn := prog.Lookup("f")
	before := 0
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpAddr {
				before++
			}
		}
	}
	st := opt.Optimize(fn)
	if st.NumberedValues == 0 {
		t.Error("LVN found nothing to share")
	}
	after := 0
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpAddr {
				after++
			}
		}
	}
	if after >= before {
		t.Errorf("address materializations: %d before, %d after", before, after)
	}
	res, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "42\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestValueNumberingRespectsRedefinition(t *testing.T) {
	// x changes between the two x+y computations; LVN must not merge them.
	prog := build(t, `
int f(int x, int y) {
    int a;
    int b;
    a = x + y;
    x = x + 1;
    b = x + y;
    return a * 100 + b;
}
void main() { print(f(3, 4)); }`)
	for _, fn := range prog.Funcs {
		opt.Optimize(fn)
	}
	res, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "708\n" {
		t.Errorf("output = %q, want 708", res.Output)
	}
}
