package exact_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/ir"
	"repro/internal/progen"
)

// siteDiff compares the antichain report a with the power-set report p
// of the same program site by site and describes the first divergence (""
// when they agree). The solvers must agree exactly: same sites, same
// verdicts, same deciding pass. The reports may come from separate
// compilations of one source, so sites are identified by their rendered
// key and instruction.
func siteDiff(a, p *exact.Report) string {
	if len(a.Sites) != len(p.Sites) {
		return fmt.Sprintf("%d vs %d sites", len(a.Sites), len(p.Sites))
	}
	for i := range a.Sites {
		sa, sp := a.Sites[i], p.Sites[i]
		if sa.Func != sp.Func || sa.Block != sp.Block || sa.Index != sp.Index ||
			sa.Key.String() != sp.Key.String() || sa.Instr.String() != sp.Instr.String() {
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

// reportDiff compares the sparse report s with the dense reference d of
// the same program and budget: the solver instrumentation, the summary
// counts and every site must match ("" when they do).
func reportDiff(s, d *exact.Report) string {
	if s.Steps != d.Steps || s.PeakWidth != d.PeakWidth || s.Exhausted != d.Exhausted {
		return fmt.Sprintf("steps/width/exhausted %d/%d/%v vs %d/%d/%v",
			s.Steps, s.PeakWidth, s.Exhausted, d.Steps, d.PeakWidth, d.Exhausted)
	}
	if s.Summary() != d.Summary() {
		return fmt.Sprintf("summary %q vs %q", s.Summary(), d.Summary())
	}
	return siteDiff(s, d)
}

// TestSparseMatchesDense pins the sparse antichain solver to the dense
// reference, which steps every instruction and relates every site up
// front: on the benchmarks and generated programs, in both modes, under
// LRU, FIFO and a direct-mapped cache, with and without interprocedural
// summaries, unbudgeted and under budgets that run out partway (a third
// of the unbudgeted steps, and a small prime), the two reports must be
// identical, steps, peak width and exhaustion included. Unified programs
// keep scalars on the stack as progen-analyze compiles them;
// conventional ones keep them in registers, which bounds the dense
// solver's cost (stack scalars there take several times the steps, and the
// generated-window differential covers them).
func TestSparseMatchesDense(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, b := range bench.All() {
		progs = append(progs, program{b.Name, b.Source})
	}
	seeds := int64(24)
	if testing.Short() || raceEnabled {
		seeds = 6
	}
	for seed := int64(1); seed <= seeds; seed++ {
		progs = append(progs, program{fmt.Sprintf("gen-%03d", seed), progen.Source(seed, progen.ScaleKnobs(1))})
	}
	var exhausted, refined atomic.Int64
	t.Run("programs", func(t *testing.T) {
		for _, pg := range progs {
			t.Run(pg.name, func(t *testing.T) {
				t.Parallel()
				for _, mode := range []core.Mode{core.Unified, core.Conventional} {
					comp, err := core.Compile(pg.src, core.Config{Mode: mode, StackScalars: mode == core.Unified})
					if err != nil {
						t.Fatalf("%s: %v", mode, err)
					}
					lru := modeConfig(mode)
					fifo, direct := lru, lru
					fifo.Policy = cache.FIFO
					direct.Ways = 1
					for _, cc := range []struct {
						name string
						cfg  cache.Config
					}{{"lru", lru}, {"fifo", fifo}, {"direct", direct}} {
						for _, interproc := range []bool{false, true} {
							label := fmt.Sprintf("%s/%s interproc=%v", mode, cc.name, interproc)
							opt := checkOptions(comp, mode, interproc)
							run := func(solve func(*ir.Program, cache.Config, check.Options, exact.Options) (*exact.Report, error), budget int64) *exact.Report {
								t.Helper()
								rep, err := solve(comp.Prog, cc.cfg, opt, exact.Options{StepBudget: budget})
								if err != nil {
									t.Fatalf("%s budget=%d: %v", label, budget, err)
								}
								return rep
							}
							full := run(exact.AnalyzeDense, 0)
							for _, budget := range []int64{0, full.Steps / 3, 97} {
								d := full
								if budget != 0 {
									d = run(exact.AnalyzeDense, budget)
								}
								if diff := reportDiff(run(exact.AnalyzeWith, budget), d); diff != "" {
									t.Errorf("%s budget=%d: sparse and dense diverge: %s", label, budget, diff)
								}
								if d.Exhausted {
									exhausted.Add(1)
								}
								refined.Add(int64(d.ExactHit + d.ExactMiss))
							}
						}
					}
				}
			})
		}
	})
	if exhausted.Load() == 0 || refined.Load() == 0 {
		t.Errorf("%d exhausted runs, %d exact verdicts: the differential compares nothing",
			exhausted.Load(), refined.Load())
	}
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
