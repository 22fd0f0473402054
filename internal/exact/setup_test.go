package exact

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
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
// fnCtx once and then one focus per unknown key allocates O(sites), where
// a focus that rebuilds per-instruction relations (one closure per
// instruction) allocates O(keys × sites), about 4× when n doubles here.
// Counting allocations instead of timing keeps the guard deterministic.
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
		sm, err := check.NewSiteModel(comp.Prog, ccfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		f := comp.Prog.Lookup("main")
		if groups := newFnCtx(sm, f, ccfg).unknownGroups(pre); len(groups) < n {
			t.Fatalf("n=%d: %d prefilter-unknown keys, want at least %d", n, len(groups), n)
		}
		stats := &runStats{}
		return testing.AllocsPerRun(5, func() {
			ctx := newFnCtx(sm, f, ccfg)
			for _, g := range ctx.unknownGroups(pre) {
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
