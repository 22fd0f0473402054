package exact

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ir"
)

// keysFunc is a main whose loop conditionally updates n distinct global
// scalars, so each global's reads and writes are prefilter-unknown sites
// of a key of their own: missed on the first update, maybe cached after.
func keysFunc(n int) string {
	var sb strings.Builder
	for k := 0; k < n; k++ {
		fmt.Fprintf(&sb, "int g%d;\n", k)
	}
	sb.WriteString("void main() {\n    int i;\n    for (i = 0; i < 10; i = i + 1) {\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&sb, "        if (i %% %d == 1) { g%d = g%d + i; }\n", k%5+2, k, k)
	}
	sb.WriteString("    }\n    print(g0);\n}\n")
	return sb.String()
}

// TestExactSetupAllocsLinear guards the per-function tables: building the
// function's site table and fnCtx once and then one focus per unknown key
// allocates O(sites), where a focus that rebuilds per-instruction
// relations (one closure per instruction) allocates O(keys × sites), about
// 4× when n doubles here. Counting allocations instead of timing keeps the
// guard deterministic.
func TestExactSetupAllocsLinear(t *testing.T) {
	ccfg := cache.ConventionalConfig()
	allocs := func(n int) float64 {
		comp, err := core.Compile(keysFunc(n), core.Config{Mode: core.Conventional, StackScalars: true})
		if err != nil {
			t.Fatal(err)
		}
		opt := check.Options{}
		pre, err := check.AnalyzeCache(comp.Prog, ccfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		newModel := func() *check.SiteModel {
			sm, err := check.NewSiteModel(comp.Prog, ccfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			return sm
		}
		f := comp.Prog.Lookup("main")
		if groups, _ := unknownGroups(newModel().Table(f), pre); len(groups) < n {
			t.Fatalf("n=%d: %d prefilter-unknown keys, want at least %d", n, len(groups), n)
		}
		stats := &runStats{}
		return testing.AllocsPerRun(5, func() {
			sm := newModel()
			groups, slot := unknownGroups(sm.Table(f), pre)
			ctx := newFnCtx(sm, f, ccfg, slot)
			for _, g := range groups {
				newFocus(ctx, g, stats)
			}
		})
	}
	const n = 64
	small, large := allocs(n), allocs(2*n)
	t.Logf("set-up allocations: %.0f at n=%d, %.0f at n=%d", small, n, large, 2*n)
	if large > 2.5*small {
		t.Errorf("allocations grew %.2f× when n doubled (%.0f → %.0f), want at most 2.5×",
			large/small, small, large)
	}
}

// TestRefinementReadsPrefilterTables requires analyze to take each
// function's site table from the SiteModel whose prefilter already built
// it: when the first focus group is solved, looking up every function's
// table in the focus's model allocates nothing, and every focus reads its
// model's table. puzzle's first focus group is in its first function, so
// a refinement that built a model or tables of its own would allocate
// here for the functions it has not reached yet.
func TestRefinementReadsPrefilterTables(t *testing.T) {
	comp, err := core.Compile(bench.Get("puzzle").Source, core.Config{Mode: core.Unified, StackScalars: true})
	if err != nil {
		t.Fatal(err)
	}
	p := comp.Prog
	opt := check.Options{Unified: true, Interproc: true, SavedRegs: core.SavedRegCounts(comp)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var first *ir.Func
	_, err = analyze(p, cache.DefaultConfig(), opt, Options{}, func(fo *focus) []check.Verdict {
		sm := fo.ctx.sm
		if first == nil {
			first = fo.ctx.f
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, f := range p.Funcs {
				sm.Table(f)
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Errorf("looking up %d tables allocated %d times: the prefilter did not build them all",
					len(p.Funcs), n)
			}
		}
		if fo.ctx.tab != sm.Table(fo.ctx.f) {
			t.Errorf("%s: the focus reads a table other than its model's", fo.ctx.f.Name)
		}
		return fo.solveAntichain()
	})
	if err != nil {
		t.Fatal(err)
	}
	if first == nil || first == p.Funcs[len(p.Funcs)-1] {
		t.Fatalf("no focus group before the last of %d functions: the test shows nothing", len(p.Funcs))
	}
}
