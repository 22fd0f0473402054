package check_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/refint"
)

// coldPointerSrc takes the address in p while main's cache is still
// empty, then fills g: the load through p is unknown only because a named
// fill also fills every pseudo-block that may address it (namedBy).
const coldPointerSrc = `
int g;
int h;
void main() {
    int *p;
    int i;
    i = 0;
    while (i < 10) { i = i + 3; }
    if (i == 12) { p = &g; } else { p = &h; }
    g = 1;
    print(*p);
    print(h);
}`

// oraclePrograms returns the six benchmarks, coldPointerSrc and the
// generated ScaleKnobs(1) programs of seeds 1..n.
func oraclePrograms(n int) map[string]string {
	srcs := map[string]string{"cold-pointer": coldPointerSrc}
	for _, b := range bench.All() {
		srcs[b.Name] = b.Source
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		srcs[fmt.Sprintf("progen-%d", seed)] = progen.Source(seed, progen.ScaleKnobs(1))
	}
	return srcs
}

// TestPrefilterMatchesMapOracle requires the dense prefilter to reach the
// same verdict at every site as the map-based fixed point it replaced,
// across both modes, stack scalars on and off, LRU and FIFO, three
// geometries (sets × ways × line words) and the interprocedural mode on
// and off. Under -short or the race detector it takes seeds 1..6 only.
func TestPrefilterMatchesMapOracle(t *testing.T) {
	n := 24
	if testing.Short() || raceEnabled {
		n = 6
	}
	geoms := [][3]int{{32, 2, 1}, {8, 4, 2}, {16, 1, 4}}
	srcs := oraclePrograms(n)
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src := srcs[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range []core.Mode{core.Unified, core.Conventional} {
				for _, stack := range []bool{false, true} {
					comp, err := core.Compile(src, core.Config{Mode: mode, StackScalars: stack})
					if err != nil {
						t.Fatalf("%s: %v", mode, err)
					}
					base := cache.DefaultConfig()
					if mode == core.Conventional {
						base = cache.ConventionalConfig()
					}
					for _, pol := range []cache.Policy{cache.LRU, cache.FIFO} {
						for _, g := range geoms {
							ccfg := base
							ccfg.Sets, ccfg.Ways, ccfg.LineWords, ccfg.Policy = g[0], g[1], g[2], pol
							for _, inter := range []bool{false, true} {
								opt := check.Options{Unified: mode == core.Unified, Interproc: inter,
									SavedRegs: core.SavedRegCounts(comp)}
								where := fmt.Sprintf("%s/stack=%v/%s/%dx%dx%d/interproc=%v",
									mode, stack, pol, g[0], g[1], g[2], inter)
								compareWithOracle(t, where, comp.Prog, ccfg, opt)
							}
						}
					}
				}
			}
		})
	}
}

func compareWithOracle(t *testing.T, where string, p *ir.Program, ccfg cache.Config, opt check.Options) {
	t.Helper()
	got, err := check.AnalyzeCache(p, ccfg, opt)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	want, err := check.AnalyzeCacheOracle(p, ccfg, opt)
	if err != nil {
		t.Fatalf("%s: oracle: %v", where, err)
	}
	if len(got.Verdicts) != len(want.Verdicts) {
		t.Fatalf("%s: %d verdicts, oracle has %d", where, len(got.Verdicts), len(want.Verdicts))
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Ref == nil {
					continue
				}
				if g, w := got.Verdicts[in.Ref], want.Verdicts[in.Ref]; g != w {
					t.Fatalf("%s: %s b%d i%d %s: verdict %s, oracle %s", where, f.Name, b.ID, i, in, g, w)
				}
			}
		}
	}
}

// TestPrefilterPassAllocatesNothing guards the dense transfer loop: once a
// function's in-states exist, another fixed-point pass copies and joins
// them in place. The map-based states allocated two maps per block per
// pass.
func TestPrefilterPassAllocatesNothing(t *testing.T) {
	comp, err := core.Compile(progen.Source(3, progen.ScaleKnobs(1)),
		core.Config{Mode: core.Unified, StackScalars: true})
	if err != nil {
		t.Fatal(err)
	}
	opt := check.Options{Unified: true, Interproc: true, SavedRegs: core.SavedRegCounts(comp)}
	for _, f := range comp.Prog.Funcs {
		pass, err := check.PrefilterPass(comp.Prog, cache.DefaultConfig(), opt, f.Name)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(10, pass); n != 0 {
			t.Errorf("%s (%d blocks): %.1f allocations per pass, want 0", f.Name, len(f.Blocks), n)
		}
	}
}

// BenchmarkAnalyzeCacheProgen runs the must/may prefilter over the twelve
// generated programs and options of exact's BenchmarkExactProgen: the
// first ScaleKnobs(1) programs, counting up from seed 1, that the
// reference interpreter runs to an OK outcome, compiled in unified mode
// with stack scalars and analysed with interprocedural summaries.
// Compilation is untimed.
func BenchmarkAnalyzeCacheProgen(b *testing.B) {
	type input struct {
		prog *ir.Program
		opt  check.Options
	}
	ccore := core.Config{Mode: core.Unified, StackScalars: true, Check: true}
	var inputs []input
	for seed := int64(1); len(inputs) < 12; seed++ {
		file := progen.Generate(seed, progen.ScaleKnobs(1))
		if _, err := refint.Run(file, refint.Config{}); err != nil {
			continue
		}
		comp, err := core.Compile(ast.Print(file), ccore)
		if err != nil {
			b.Fatalf("seed %d: %v", seed, err)
		}
		inputs = append(inputs, input{comp.Prog,
			check.Options{Unified: true, Interproc: true, SavedRegs: core.SavedRegCounts(comp)}})
	}
	ccfg := cache.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			if _, err := check.AnalyzeCache(in.prog, ccfg, in.opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}
