package exact_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/progen"
)

// FuzzExact cross-checks the exact classifier against concrete execution:
// every generated program is classified and then replayed on the
// production VM, and any always-hit site that misses (or always-miss site
// that hits) fails the target. Programs come from progen (SmallKnobs),
// which generates deterministic, terminating, memory-safe MC sources, so
// a failure is always an analysis soundness bug, never a bad program.
func FuzzExact(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	geoms := []cache.Config{
		{Sets: 32, Ways: 2, LineWords: 1, Policy: cache.LRU},
		{Sets: 8, Ways: 1, LineWords: 1, Policy: cache.LRU},
		{Sets: 4, Ways: 2, LineWords: 1, Policy: cache.FIFO},
		{Sets: 8, Ways: 2, LineWords: 1, Policy: cache.Random},
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := progen.Source(seed, progen.SmallKnobs())
		g := geoms[uint64(seed)%uint64(len(geoms))]
		for _, mode := range []core.Mode{core.Unified, core.Conventional} {
			ccfg := g
			ccfg.Seed = 1
			if mode == core.Unified {
				ccfg.Dead, ccfg.HonorBypass = cache.DeadInvalidate, true
			}
			for _, stack := range []bool{true, false} {
				res, err := exact.Oracle(src, core.Config{Mode: mode, StackScalars: stack, Check: true}, ccfg, 2_000_000)
				if err != nil {
					// Budget or resource exhaustion is an ordinary outcome
					// for a generated program; only unsoundness fails.
					continue
				}
				if verr := res.Err(); verr != nil {
					t.Errorf("seed %d %s/%s stack=%v:\n%v\nsource:\n%s", seed, mode, ccfg.Policy, stack, verr, src)
				}
			}
		}
	})
}

// fuzzStepBudget bounds each FuzzExactAntichain solver run. It sits above
// the largest step count of any seed-corpus input (1,738,423: seed 4,
// conventional mode, under either solver), so the corpus compares exactly
// what it would unbudgeted, while a fuzzed input can no longer run past
// the fuzz worker's per-input time limit.
const fuzzStepBudget = 2_000_000

// FuzzExactAntichain differentially fuzzes the antichain solver against
// the power-set reference: on every generated program (both modes, with
// and without interprocedural summaries) the two must produce identical
// per-site verdicts, and the antichain verdicts must survive the VM
// oracle. A divergence is always a solver bug — the compression argument
// says the representations are equivalent. Both solvers and the oracle
// run under fuzzStepBudget; an input either solver exhausts it on is
// skipped, since budgets cut the two at different points.
func FuzzExactAntichain(f *testing.F) {
	xopt := exact.Options{StepBudget: fuzzStepBudget}
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := progen.Source(seed, progen.SmallKnobs())
		for _, mode := range []core.Mode{core.Unified, core.Conventional} {
			ccfg := modeConfig(mode)
			comp, err := core.Compile(src, core.Config{Mode: mode, StackScalars: true, Check: true})
			if err != nil {
				continue
			}
			for _, interproc := range []bool{false, true} {
				opt := checkOptions(comp, mode, interproc)
				d, exhausted := bothSolvers(t, comp, ccfg, opt, xopt)
				if exhausted {
					continue
				}
				if d != "" {
					t.Errorf("seed %d %s interproc=%v: solvers diverge: %s\nsource:\n%s",
						seed, mode, interproc, d, src)
				}
				// The antichain verdicts must also be dynamically sound.
				res, err := exact.OracleWith(src, core.Config{Mode: mode, StackScalars: true, Check: true},
					ccfg, 2_000_000, xopt, interproc)
				if err != nil {
					continue // resource exhaustion: ordinary for generated code
				}
				if verr := res.Err(); verr != nil {
					t.Errorf("seed %d %s interproc=%v:\n%v\nsource:\n%s", seed, mode, interproc, verr, src)
				}
			}
		}
	})
}

// Regression seeds: programs the fuzzer (or development) found interesting
// enough to pin — they exercise kills, bypass, and spill traffic through
// the classifier on every test run, not only under -fuzz.
func TestExactOracleGeneratedPrograms(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		src := progen.Source(seed, progen.SmallKnobs())
		for _, mode := range []core.Mode{core.Unified, core.Conventional} {
			ccfg := cache.DefaultConfig()
			if mode == core.Conventional {
				ccfg = cache.ConventionalConfig()
			}
			res, err := exact.Oracle(src, core.Config{Mode: mode, StackScalars: true, Check: true}, ccfg, 2_000_000)
			if err != nil {
				continue
			}
			if verr := res.Err(); verr != nil {
				t.Errorf("seed %d %s:\n%v\nsource:\n%s", seed, mode, verr, src)
			}
		}
	}
}
