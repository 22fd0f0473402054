package exact_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/progen"
)

// siteDiff compares the antichain report a with the power-set report p
// of the same program site by site and describes the first divergence (""
// when they agree). The solvers must agree exactly: same sites, same
// verdicts, same deciding pass.
func siteDiff(a, p *exact.Report) string {
	if len(a.Sites) != len(p.Sites) {
		return fmt.Sprintf("%d vs %d sites", len(a.Sites), len(p.Sites))
	}
	for i := range a.Sites {
		sa, sp := a.Sites[i], p.Sites[i]
		if sa.Func != sp.Func || sa.Block != sp.Block || sa.Index != sp.Index || sa.Key != sp.Key {
			return fmt.Sprintf("site %d identity: %s b%d i%d (%s) vs %s b%d i%d (%s)",
				i, sa.Func, sa.Block, sa.Index, sa.Key, sp.Func, sp.Block, sp.Index, sp.Key)
		}
		if sa.Verdict != sp.Verdict || sa.By != sp.By {
			return fmt.Sprintf("%s b%d i%d (%s): antichain %s by %s, powerset %s by %s",
				sa.Func, sa.Block, sa.Index, sa.Key, sa.Verdict, sa.By, sp.Verdict, sp.By)
		}
	}
	return ""
}

// bothSolvers classifies comp under the antichain solver and the power-set
// reference, with the same step budget, and returns their first
// divergence; exhausted reports that either run ran out of budget, which
// leaves the two reports incomparable.
func bothSolvers(t *testing.T, comp *core.Compilation, ccfg cache.Config, opt check.Options,
	xopt exact.Options) (diff string, exhausted bool) {
	t.Helper()
	a, err := exact.AnalyzeWith(comp.Prog, ccfg, opt, xopt)
	if err != nil {
		t.Fatalf("antichain: %v", err)
	}
	p, err := exact.AnalyzePowerset(comp.Prog, ccfg, opt, xopt)
	if err != nil {
		t.Fatalf("powerset: %v", err)
	}
	if a.Exhausted || p.Exhausted {
		return "", true
	}
	return siteDiff(a, p), false
}

// modeConfig is the paper's cache for a management mode.
func modeConfig(mode core.Mode) cache.Config {
	if mode == core.Conventional {
		return cache.ConventionalConfig()
	}
	return cache.DefaultConfig()
}

// checkOptions are the analysis options for comp, with or without
// interprocedural call summaries.
func checkOptions(comp *core.Compilation, mode core.Mode, interproc bool) check.Options {
	opt := check.Options{Unified: mode == core.Unified}
	if interproc {
		opt.Interproc = true
		opt.SavedRegs = core.SavedRegCounts(comp)
	}
	return opt
}

// TestSolversAgreeOnBenchmarks is the solver-equivalence differential: on
// every benchmark, in both modes, with and without interprocedural
// summaries, the antichain and power-set solvers must produce identical
// per-site verdicts.
func TestSolversAgreeOnBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		for _, mode := range []core.Mode{core.Unified, core.Conventional} {
			comp, err := core.Compile(b.Source, core.Config{Mode: mode, StackScalars: true, Check: true})
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			for _, interproc := range []bool{false, true} {
				if d, _ := bothSolvers(t, comp, modeConfig(mode), checkOptions(comp, mode, interproc), exact.Options{}); d != "" {
					t.Errorf("%s/%s interproc=%v: solvers diverge: %s", b.Name, mode, interproc, d)
				}
			}
		}
	}
}

// TestSolversAgreeOnGeneratedWindow runs the solver differential and the
// VM oracle over mid-size generated programs with interprocedural
// summaries on: sieve plus progen seeds 3, 5 and 8 at scale 2, in both
// modes, under the compiler configuration unicheck uses and with stack
// scalars. With stack scalars, seeds 3 and 8 in conventional mode are the
// programs of the window whose antichains outgrow their width caps, so
// that is where the merge widening meets the power-set reference's
// collapse to top.
func TestSolversAgreeOnGeneratedWindow(t *testing.T) {
	// Single-threaded and about a minute; the race detector would only
	// multiply that. CI's exact-scale-smoke stage runs it without -race.
	if testing.Short() || raceEnabled {
		t.Skip("power-set solver over scale-2 generated programs")
	}
	type program struct{ name, src string }
	progs := []program{{"sieve", bench.Get("sieve").Source}}
	for _, seed := range []int64{3, 5, 8} {
		progs = append(progs, program{fmt.Sprintf("gen-%03d", seed), progen.Source(seed, progen.ScaleKnobs(2))})
	}
	for _, pg := range progs {
		for _, mode := range []core.Mode{core.Unified, core.Conventional} {
			for _, stack := range []bool{false, true} {
				label := fmt.Sprintf("%s/%s/stack=%v", pg.name, mode, stack)
				ccore := core.Config{Mode: mode, StackScalars: stack}
				comp, err := core.Compile(pg.src, ccore)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				// The oracle's own report is the antichain side.
				ccfg := modeConfig(mode)
				res, err := exact.OracleWith(pg.src, ccore, ccfg, 0, exact.Options{}, true)
				if err != nil {
					t.Fatalf("%s oracle: %v", label, err)
				}
				if err := res.Err(); err != nil {
					t.Errorf("%s: %v", label, err)
				}
				rep := res.Report
				if rep.ExactHit+rep.ExactMiss+rep.Irreducible == 0 {
					t.Errorf("%s: the prefilter decided every site; the differential compares nothing", label)
				}
				p, err := exact.AnalyzePowerset(comp.Prog, ccfg, checkOptions(comp, mode, true), exact.Options{})
				if err != nil {
					t.Fatalf("%s powerset: %v", label, err)
				}
				if d := siteDiff(rep, p); d != "" {
					t.Errorf("%s: solvers diverge: %s", label, d)
				}
			}
		}
	}
}
