package check_test

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ir"
)

const counterSrc = `
int g;
void main() {
    g = 1;
    g = g + 1;
    g = g + 2;
    print(g);
}`

// verdictFor returns the verdict of the n-th (0-based) reference of f
// matching pred.
func verdictFor(t *testing.T, c *core.Compilation, rep *check.CacheReport, fn string, n int,
	pred func(*ir.Instr) bool) check.Verdict {
	t.Helper()
	f := c.Prog.Lookup(fn)
	if f == nil {
		t.Fatalf("no function %s", fn)
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Ref == nil || !pred(in) {
				continue
			}
			if n == 0 {
				return rep.Verdicts[in.Ref]
			}
			n--
		}
	}
	t.Fatalf("%s: reference %d not found", fn, n)
	return check.Unknown
}

func TestColdMainFirstStoreAlwaysMisses(t *testing.T) {
	// Conventional mode, main never called: the cache starts cold, so the
	// first touch of g must miss and every later reference must hit.
	c := compile(t, counterSrc, core.Config{Mode: core.Conventional})
	rep, err := check.AnalyzeCache(c.Prog, cache.ConventionalConfig(), opts(core.Conventional))
	if err != nil {
		t.Fatal(err)
	}
	isG := func(in *ir.Instr) bool {
		return in.Ref.Kind == ir.RefScalar && in.Ref.Obj != nil && in.Ref.Obj.Name == "g"
	}
	if v := verdictFor(t, c, rep, "main", 0, isG); v != check.AlwaysMiss {
		t.Errorf("first touch of g: %s, want always-miss", v)
	}
	last := -1
	f := c.Prog.Lookup("main")
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Ref != nil && isG(in) {
				last++
				if last > 0 {
					if v := rep.Verdicts[in.Ref]; v != check.AlwaysHit {
						t.Errorf("reference %d of g: %s, want always-hit", last, v)
					}
				}
			}
		}
	}
	if last < 2 {
		t.Fatalf("expected several references to g, saw %d", last+1)
	}
}

func TestNonLRUPolicyProducesNoMustHits(t *testing.T) {
	c := compile(t, counterSrc, core.Config{Mode: core.Conventional})
	cfg := cache.ConventionalConfig()
	cfg.Policy = cache.FIFO
	rep, err := check.AnalyzeCache(c.Prog, cfg, opts(core.Conventional))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hit != 0 {
		t.Errorf("FIFO: %d always-hit verdicts, want 0 (age bounds only hold for LRU)", rep.Hit)
	}
	if rep.Miss == 0 {
		t.Error("FIFO: always-miss verdicts should survive (membership is policy-independent)")
	}
}

// The report header must say which analysis halves actually ran: under
// FIFO/Random the must half is disabled, and wording that implies an LRU
// age argument ran would overstate what was proven.
func TestReportNamesAnalysisHalves(t *testing.T) {
	c := compile(t, counterSrc, core.Config{Mode: core.Conventional})

	lru, err := check.AnalyzeCache(c.Prog, cache.ConventionalConfig(), opts(core.Conventional))
	if err != nil {
		t.Fatal(err)
	}
	if !lru.MustHalf {
		t.Error("LRU: MustHalf = false, want true")
	}
	if got := lru.Report(c.Prog); !strings.Contains(got, "must+may") {
		t.Errorf("LRU report header does not name both halves:\n%s", got)
	}

	for _, pol := range []cache.Policy{cache.FIFO, cache.Random} {
		cfg := cache.ConventionalConfig()
		cfg.Policy = pol
		rep, err := check.AnalyzeCache(c.Prog, cfg, opts(core.Conventional))
		if err != nil {
			t.Fatal(err)
		}
		if rep.MustHalf {
			t.Errorf("%s: MustHalf = true, want false", pol)
		}
		got := rep.Report(c.Prog)
		if !strings.Contains(got, "may-only") || !strings.Contains(got, pol.String()) {
			t.Errorf("%s report header does not say the must half was off:\n%s", pol, got)
		}
		if strings.Contains(got, "must+may") {
			t.Errorf("%s report claims the must half ran:\n%s", pol, got)
		}
	}
}

func TestSpillReloadsProveHitsConventionally(t *testing.T) {
	// Conventional spills go through the cache; with one-word lines the
	// frame offsets give exact set deltas, so a reload right after its
	// store is provably resident.
	c := compile(t, spillSrc, core.Config{Mode: core.Conventional, Target: tiny})
	rep, err := check.AnalyzeCache(c.Prog, cache.ConventionalConfig(), opts(core.Conventional))
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, f := range c.Prog.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.OpLoad && in.Ref != nil && in.Ref.Kind == ir.RefSpill &&
					rep.Verdicts[in.Ref] == check.AlwaysHit {
					hits++
				}
			}
		}
	}
	if hits == 0 {
		t.Error("no spill reload proved always-hit")
	}
}

func TestBypassSitesClassifiedAsBypass(t *testing.T) {
	c := compile(t, counterSrc, core.Config{Mode: core.Unified})
	rep, err := check.AnalyzeCache(c.Prog, cache.DefaultConfig(), opts(core.Unified))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Byp == 0 {
		t.Error("unified compilation of an unaliased global should have bypass sites")
	}
	for ref, v := range rep.Verdicts {
		if ref.Bypass && v != check.Bypassed {
			t.Errorf("bypass site classified %s", v)
		}
	}
}

func TestAnalyzeCacheRejectsBadGeometry(t *testing.T) {
	c := compile(t, counterSrc, core.Config{Mode: core.Unified})
	bad := cache.DefaultConfig()
	bad.Sets = 3 // not a power of two
	if _, err := check.AnalyzeCache(c.Prog, bad, opts(core.Unified)); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestCalledFunctionsAssumeWarmCache(t *testing.T) {
	// g is touched first inside a callee; because the callee may be
	// entered with any cache state, its first touch must NOT be
	// always-miss.
	src := `
int g;
void poke() { g = g + 1; }
void main() { poke(); poke(); print(g); }`
	c := compile(t, src, core.Config{Mode: core.Conventional})
	rep, err := check.AnalyzeCache(c.Prog, cache.ConventionalConfig(), opts(core.Conventional))
	if err != nil {
		t.Fatal(err)
	}
	v := verdictFor(t, c, rep, "poke", 0, func(in *ir.Instr) bool {
		return in.Ref.Obj != nil && in.Ref.Obj.Name == "g"
	})
	if v == check.AlwaysMiss {
		t.Error("callee's first touch classified always-miss despite warm-cache entry")
	}
}

// A pointer loaded before anything is cached names a line that a later
// direct access to one of its targets brings in. In unified mode the loads
// and stores of p bypass the cache, so only the direct read of b fills a
// line; the store through p must not be proven always-miss.
func TestNamedFillReachesPseudoBlock(t *testing.T) {
	const src = `
int a;
int b;
int *p;
void main() {
    p = &a;
    p = &b;
    *p = b + 1;
    print(a);
    print(b);
}`
	c := compile(t, src, core.Config{Mode: core.Unified})
	res, err := check.Differential(c.Prog, cache.DefaultConfig(), opts(core.Unified))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
}
