package exact_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exact"
)

func opts(m core.Mode) check.Options { return check.Options{Unified: m == core.Unified} }

func analyze(t *testing.T, src string, ccore core.Config, ccfg cache.Config) *exact.Report {
	t.Helper()
	comp, err := core.Compile(src, ccore)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rep, err := exact.Analyze(comp.Prog, ccfg, opts(ccore.Mode))
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return rep
}

// A scalar kept in frame memory (baseline compiler) and re-read in a loop:
// the second read hits under any policy, but the must half is LRU-only, so
// under FIFO only the exact pass can prove it.
const hotScalarSrc = `
void main() {
    int s;
    int i;
    s = 0;
    for (i = 0; i < 10; i = i + 1) {
        s = s + i;
    }
    print(s);
}`

func TestExactProvesHitsUnderFIFO(t *testing.T) {
	ccfg := cache.ConventionalConfig()
	ccfg.Policy = cache.FIFO
	rep := analyze(t, hotScalarSrc,
		core.Config{Mode: core.Conventional, StackScalars: true, Check: true}, ccfg)
	if rep.PreHit != 0 {
		t.Fatalf("prefilter proved %d always-hits under FIFO; must half should be off", rep.PreHit)
	}
	if rep.ExactHit == 0 {
		t.Errorf("exact pass proved no always-hits under FIFO:\n%s", rep.Render())
	}
}

// Two global scalars eight words apart thrash a direct-mapped 8-set
// cache: each access evicts the other, but the may half can never prove
// eviction, so only the exact pass can produce the always-miss verdicts.
const thrashSrc = `
int x;
int pad[7];
int y;
void main() {
    int i;
    int s;
    s = 0;
    for (i = 0; i < 20; i = i + 1) {
        x = s;
        y = i;
        s = s + x + y;
    }
    print(s);
}`

func TestExactProvesMissesDirectMapped(t *testing.T) {
	ccfg := cache.ConventionalConfig()
	ccfg.Sets, ccfg.Ways = 8, 1
	rep := analyze(t, thrashSrc,
		core.Config{Mode: core.Conventional, Check: true}, ccfg)
	if rep.ExactMiss == 0 {
		t.Errorf("exact pass proved no always-misses on thrashing program:\n%s", rep.Render())
	}
}

// The exact pass may only resolve Unknown: every prefilter verdict must
// survive into the final classification untouched.
func TestExactNeverDowngradesPrefilter(t *testing.T) {
	for _, b := range bench.All() {
		for _, mode := range []core.Mode{core.Unified, core.Conventional} {
			ccfg := cache.DefaultConfig()
			if mode == core.Conventional {
				ccfg = cache.ConventionalConfig()
			}
			comp, err := core.Compile(b.Source, core.Config{Mode: mode, StackScalars: true, Check: true})
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			pre, err := check.AnalyzeCache(comp.Prog, ccfg, opts(mode))
			if err != nil {
				t.Fatalf("%s prefilter: %v", b.Name, err)
			}
			rep, err := exact.Analyze(comp.Prog, ccfg, opts(mode))
			if err != nil {
				t.Fatalf("%s exact: %v", b.Name, err)
			}
			for ref, v := range pre.Verdicts {
				if v == check.Unknown {
					continue
				}
				if got := rep.Verdicts[ref]; got != v {
					t.Errorf("%s/%s: prefilter verdict %s downgraded to %s", b.Name, mode, v, got)
				}
			}
		}
	}
}

// TestOracleBenchmarks replays every benchmark through the production VM in
// both modes and across several geometries, asserting that no always-hit
// site ever misses and no always-miss site ever hits.
func TestOracleBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle replay is slow")
	}
	geoms := []cache.Config{
		cache.DefaultConfig(), // paper: 32x2 LRU
		{Sets: 8, Ways: 1, LineWords: 1, Policy: cache.LRU, Dead: cache.DeadInvalidate, HonorBypass: true, Seed: 1},
		{Sets: 32, Ways: 2, LineWords: 1, Policy: cache.FIFO, Dead: cache.DeadInvalidate, HonorBypass: true, Seed: 1},
	}
	for _, b := range bench.All() {
		for _, mode := range []core.Mode{core.Unified, core.Conventional} {
			for gi, g := range geoms {
				for _, stack := range []bool{true, false} {
					if !stack && gi > 0 {
						continue // optimizing compiler: paper geometry only
					}
					ccfg := g
					if mode == core.Conventional {
						ccfg.Dead, ccfg.HonorBypass = cache.DeadOff, false
					}
					res, err := exact.Oracle(b.Source, core.Config{Mode: mode, StackScalars: stack, Check: true}, ccfg, 0)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", b.Name, mode, ccfg.Policy, err)
					}
					if err := res.Err(); err != nil {
						t.Errorf("%s/%s/%s(stack=%v):\n%v", b.Name, mode, ccfg.Policy, stack, err)
					}
					if b.Expected != "" && res.Output != b.Expected {
						t.Errorf("%s/%s/%s: output %q, want %q", b.Name, mode, ccfg.Policy, res.Output, b.Expected)
					}
					if res.Refs == 0 {
						t.Errorf("%s/%s/%s: oracle checked no references", b.Name, mode, ccfg.Policy)
					}
				}
			}
		}
	}
}
