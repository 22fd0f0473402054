package codegen

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/progen"
	"repro/internal/refint"
	"repro/internal/regalloc"
)

func generate(t *testing.T, src string, cfg core.Config) *isa.Program {
	t.Helper()
	comp, err := core.Compile(src, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	prog, err := Generate(comp)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("validate: %v\n%s", err, prog.Listing())
	}
	return prog
}

func TestStartupStub(t *testing.T) {
	prog := generate(t, `void main() { print(1); }`, core.Config{})
	if prog.Entry != 0 {
		t.Errorf("entry = %d, want 0", prog.Entry)
	}
	if prog.Instrs[0].Op != isa.JAL {
		t.Errorf("first instruction %s, want jal main", prog.Instrs[0].String())
	}
	if prog.Instrs[1].Op != isa.HALT {
		t.Errorf("second instruction %s, want halt", prog.Instrs[1].String())
	}
	if prog.Instrs[0].Target != prog.Labels["main"] {
		t.Error("jal target is not main")
	}
}

func TestGlobalLayoutAndInit(t *testing.T) {
	prog := generate(t, `
int a = 5;
int arr[10];
int b = -3;
void main() { print(a + b + arr[0]); }`, core.Config{})
	if prog.GlobalWords != 12 {
		t.Errorf("global words = %d, want 12", prog.GlobalWords)
	}
	aAddr, ok := prog.Symbols["a"]
	if !ok {
		t.Fatal("symbol a missing")
	}
	if prog.GlobalInit[aAddr] != 5 {
		t.Errorf("init[a] = %d, want 5", prog.GlobalInit[aAddr])
	}
	bAddr := prog.Symbols["b"]
	if prog.GlobalInit[bAddr] != -3 {
		t.Errorf("init[b] = %d, want -3", prog.GlobalInit[bAddr])
	}
	if arr := prog.Symbols["arr"]; arr != aAddr+1 {
		t.Errorf("arr at %d, want %d (dense layout)", arr, aAddr+1)
	}
}

func TestUnifiedFrameTrafficFlavors(t *testing.T) {
	// A non-leaf function must save RA through the cache (sw.am) and
	// restore it with a killing bypass load (lw.uml) in unified mode.
	prog := generate(t, `
int leaf(int x) { return x + 1; }
void main() { print(leaf(2)); }`, core.Config{Mode: core.Unified})
	listing := prog.Listing()
	if !strings.Contains(listing, "sw.am $ra") {
		t.Errorf("missing through-cache RA save:\n%s", listing)
	}
	if !strings.Contains(listing, "lw.uml $ra") {
		t.Errorf("missing killing RA restore:\n%s", listing)
	}
}

func TestConventionalFrameTrafficFlavors(t *testing.T) {
	prog := generate(t, `
int leaf(int x) { return x + 1; }
void main() { print(leaf(2)); }`, core.Config{Mode: core.Conventional})
	listing := prog.Listing()
	if strings.Contains(listing, ".um") || strings.Contains(listing, ".uml") {
		t.Errorf("conventional mode must not emit bypass flavors:\n%s", listing)
	}
}

func TestStackArguments(t *testing.T) {
	prog := generate(t, `
int six(int a, int b, int c, int d, int e, int f) { return a + f; }
void main() { print(six(1, 2, 3, 4, 5, 6)); }`, core.Config{Mode: core.Unified})
	listing := prog.Listing()
	// Caller stages args 5 and 6 to the outgoing area at 0($sp) and 1($sp)
	// through the cache; callee consumes them with killing bypass loads.
	if !strings.Contains(listing, "sw.am") {
		t.Errorf("caller must store extra args through cache:\n%s", listing)
	}
	found := false
	sixPC := prog.Labels["six"]
	for pc := sixPC; pc < len(prog.Instrs); pc++ {
		in := prog.Instrs[pc]
		if in.Op == isa.LW && in.Bypass && in.Last && in.Rs == isa.SP {
			found = true
			break
		}
		if in.Op == isa.JR {
			break
		}
	}
	if !found {
		t.Errorf("callee must load incoming stack args with lw.uml:\n%s", listing)
	}
}

func TestLeafHasNoRASave(t *testing.T) {
	prog := generate(t, `
int leaf(int x, int y) { return x * y; }
void main() { print(leaf(3, 4)); }`, core.Config{})
	leafPC := prog.Labels["leaf"]
	for pc := leafPC; pc < len(prog.Instrs); pc++ {
		in := prog.Instrs[pc]
		if in.Op == isa.SW && in.Rt == isa.RA {
			t.Error("leaf function saves RA unnecessarily")
		}
		if in.Op == isa.JR {
			break
		}
	}
}

func TestBranchFallthroughOptimization(t *testing.T) {
	prog := generate(t, `
void main() {
    int i;
    for (i = 0; i < 4; i++) print(i);
}`, core.Config{})
	// Count unconditional jumps; a naive generator emits one per branch,
	// the fallthrough optimization should keep it low.
	jumps := 0
	for _, in := range prog.Instrs {
		if in.Op == isa.J {
			jumps++
		}
	}
	if jumps > 2 {
		t.Errorf("too many unconditional jumps (%d); fallthrough not applied", jumps)
	}
}

func TestSpillSlotsAddressedOffSP(t *testing.T) {
	tiny := regalloc.Target{CallerSaved: []int{8, 9}, CalleeSaved: []int{16}}
	prog := generate(t, `
void main() {
    int a; int b; int cc; int d; int e;
    a = 1; b = 2; cc = 3; d = 4; e = 5;
    print(a + b + cc + d + e);
    print(a * b * cc * d * e);
}`, core.Config{Mode: core.Unified, Target: tiny})
	spillStores, spillReloads := 0, 0
	for _, in := range prog.Instrs {
		if in.Op == isa.SW && in.Rs == isa.SP && !in.Bypass {
			spillStores++
		}
		if in.Op == isa.LW && in.Rs == isa.SP && in.Bypass {
			spillReloads++
		}
	}
	if spillStores == 0 || spillReloads == 0 {
		t.Errorf("expected SP-relative spill traffic, got %d stores / %d reloads",
			spillStores, spillReloads)
	}
}

func TestMixCountsBypass(t *testing.T) {
	prog := generate(t, `
int unaliased;
int arr[8];
void main() {
    unaliased = 1;
    arr[0] = unaliased;
    print(arr[0]);
}`, core.Config{Mode: core.Unified})
	m := prog.Mix()
	if m.BypassLoads+m.BypassStores == 0 {
		t.Error("expected bypass memory operations for the unaliased global")
	}
	if m.Loads+m.Stores == m.BypassLoads+m.BypassStores {
		t.Error("array references must remain cached")
	}
}

func TestMissingMainStillGenerates(t *testing.T) {
	// Generation succeeds without main (it is a link-level concept here);
	// the startup stub just targets a missing label, which resolve rejects.
	comp, err := core.Compile(`void notmain() { print(1); }`, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(comp); err == nil {
		t.Error("expected undefined-label error for missing main")
	}
}

// TestInstrsHoldNoSlack: Generate sizes Program.Instrs exactly, with no
// spare capacity, for each benchmark under both management modes and
// compiler configurations that move the count: stack scalars, inlining
// and optimization, promoted globals, and a palette small enough to spill
// parameters. A stored program keeps its Instrs for as long as it lives.
func TestInstrsHoldNoSlack(t *testing.T) {
	tiny := regalloc.Target{CallerSaved: []int{8, 9}, CalleeSaved: []int{16, 17}}
	configs := map[string]core.Config{
		"plain":    {},
		"stack":    {StackScalars: true},
		"inline":   {Inline: true, Optimize: true},
		"promote":  {PromoteGlobals: true},
		"tiny":     {Target: tiny},
		"tiny+opt": {Target: tiny, Inline: true, Optimize: true, Strategy: regalloc.UsageCount},
	}
	for _, b := range bench.All() {
		for name, cfg := range configs {
			for _, mode := range []core.Mode{core.Unified, core.Conventional} {
				cfg.Mode = mode
				prog := generate(t, b.Source, cfg)
				if cap(prog.Instrs) != len(prog.Instrs) {
					t.Errorf("%s/%s/%v: cap %d, len %d", b.Name, name, mode, cap(prog.Instrs), len(prog.Instrs))
				}
			}
		}
	}
}

// BenchmarkCompileProgen compiles and lowers the progen-analyze workload's
// program set: the first 48 generated ScaleKnobs(1) programs, counting
// from seed 1, that the reference interpreter runs to completion, under
// unified management with stack scalars and the structural check on.
// B/op and allocs/op are the compile layer's share of that workload's
// allocation.
func BenchmarkCompileProgen(b *testing.B) {
	var srcs []string
	for seed := int64(1); len(srcs) < 48; seed++ {
		file := progen.Generate(seed, progen.ScaleKnobs(1))
		if _, err := refint.Run(file, refint.Config{}); err != nil {
			continue
		}
		srcs = append(srcs, ast.Print(file))
	}
	cfg := core.Config{Mode: core.Unified, StackScalars: true, Check: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			comp, err := core.Compile(src, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Generate(comp); err != nil {
				b.Fatal(err)
			}
		}
	}
}
