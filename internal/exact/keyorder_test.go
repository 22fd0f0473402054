package exact_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/progen"
)

// keyOrderOracle is the key numbering the exact refinement built for
// itself before it read check's site table: the function's named blocks
// in discovery order, then (interprocedural mode) the sorted single-line
// globals of its distinct call summaries that it does not name itself,
// then the pseudo-blocks in site order. Name bits are key indices below
// named, so a different order changes the solver's steps. siteKeys lists
// each site's block in program order.
func keyOrderOracle(sm *check.SiteModel, f *ir.Func, siteKeys []check.SiteKey) (keys []check.SiteKey, named int) {
	idx := make(map[check.SiteKey]int)
	index := func(k check.SiteKey) {
		if _, ok := idx[k]; !ok {
			idx[k] = len(keys)
			keys = append(keys, k)
		}
	}
	for _, k := range siteKeys {
		if !k.Pseudo() {
			index(k)
		}
	}
	seenSum := make(map[*check.CallSummary]bool)
	var lines []int64
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			sum := sm.CallSummary(&b.Instrs[i])
			if sum.Clobber || seenSum[sum] {
				continue
			}
			seenSum[sum] = true
			for _, sp := range sum.RefSpans {
				if sp.Lo == sp.Hi && !slices.Contains(lines, sp.Lo) {
					lines = append(lines, sp.Lo)
				}
			}
		}
	}
	slices.Sort(lines)
	for _, l := range lines {
		index(check.GlobalLineKey(l))
	}
	named = min(len(keys), dataflow.WordBits)
	for _, k := range siteKeys {
		index(k)
	}
	return keys, named
}

// TestTableKeyOrderMatchesOracle requires the shared site table to number
// keys as keyOrderOracle does, and its retiring positions to carry those
// numbers. Solver differentials cannot see an order change
// (both solvers read the same table), so this test builds tables only and
// solves nothing. Under -short or the race detector it takes seeds 1..6.
func TestTableKeyOrderMatchesOracle(t *testing.T) {
	n := 24
	if testing.Short() || raceEnabled {
		n = 6
	}
	srcs := map[string]string{}
	var names []string
	for _, b := range bench.All() {
		srcs[b.Name] = b.Source
		names = append(names, b.Name)
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		name := fmt.Sprintf("progen-%d", seed)
		srcs[name] = progen.Source(seed, progen.ScaleKnobs(1))
		names = append(names, name)
	}
	for _, name := range names {
		for _, mode := range []core.Mode{core.Unified, core.Conventional} {
			comp, err := core.Compile(srcs[name], core.Config{Mode: mode, StackScalars: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mode, err)
			}
			ccfg := cache.DefaultConfig()
			if mode == core.Conventional {
				ccfg = cache.ConventionalConfig()
			}
			for _, inter := range []bool{false, true} {
				opt := check.Options{Unified: mode == core.Unified, Interproc: inter,
					SavedRegs: core.SavedRegCounts(comp)}
				sm, err := check.NewSiteModel(comp.Prog, ccfg, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range comp.Prog.Funcs {
					where := fmt.Sprintf("%s/%s/interproc=%v/%s", name, mode, inter, f.Name)
					checkKeyOrder(t, where, sm, f)
				}
			}
		}
	}
}

func checkKeyOrder(t *testing.T, where string, sm *check.SiteModel, f *ir.Func) {
	t.Helper()
	tab := sm.Table(f)
	siteKeys := make([]check.SiteKey, len(tab.Sites))
	for i, s := range tab.Sites {
		siteKeys[i] = tab.Keys[s.Key]
	}
	keys, named := keyOrderOracle(sm, f, siteKeys)
	if !slices.Equal(tab.Keys, keys) {
		t.Fatalf("%s: table keys %v, oracle %v", where, tab.Keys, keys)
	}
	if got := min(tab.Named, dataflow.WordBits); got != named {
		t.Fatalf("%s: %d named keys, oracle %d", where, got, named)
	}
	pseudo := make(map[string]int32) // a pseudo-block renders as its register in brackets
	for j, k := range keys {
		if k.Pseudo() {
			pseudo[k.String()] = int32(j)
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			want := int32(-1)
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				if j, ok := pseudo["["+d.String()+"]"]; ok {
					want = j
				}
			}
			if got := tab.Ops[tab.Start[b.ID]+i].Retire; got != want {
				t.Fatalf("%s: b%d i%d retires key %d, want %d", where, b.ID, i, got, want)
			}
		}
	}
}
