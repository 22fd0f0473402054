package exact_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/progen"
)

// TestStepBudgetContract pins what a step budget promises. A program the
// refinement finishes unbudgeted is rerun with half its step count: the
// run must report exhaustion, repeat itself exactly, leave every prefilter
// verdict alone, and only ever give up exact verdicts, never change them.
func TestStepBudgetContract(t *testing.T) {
	comp, err := core.Compile(progen.Source(3, progen.ScaleKnobs(2)), core.Config{Mode: core.Conventional, StackScalars: true, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cache.ConventionalConfig()
	opt := check.Options{Interproc: true, SavedRegs: core.SavedRegCounts(comp)}
	run := func(budget int64) *exact.Report {
		t.Helper()
		rep, err := exact.AnalyzeWith(comp.Prog, ccfg, opt, exact.Options{StepBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	full := run(0)
	if full.Exhausted || full.ExactHit+full.ExactMiss == 0 {
		t.Fatalf("unbudgeted run: exhausted=%v, %d exact verdicts; want a converged run that decides sites",
			full.Exhausted, full.ExactHit+full.ExactMiss)
	}
	if strings.Contains(full.Render(), "step budget") {
		t.Error("unbudgeted report claims the step budget ran out")
	}
	budget := full.Steps / 2
	cut := run(budget)
	if !cut.Exhausted {
		t.Fatalf("budget %d of %d steps: run not marked exhausted", budget, full.Steps)
	}
	if !strings.Contains(cut.Render(), "step budget ran out") {
		t.Errorf("exhausted report does not say the step budget ran out:\n%s", cut.Render())
	}
	again := run(budget)
	if cut.Steps != again.Steps || !reflect.DeepEqual(cut.Sites, again.Sites) {
		t.Errorf("budgeted runs differ: %d vs %d steps, sites equal %v",
			cut.Steps, again.Steps, reflect.DeepEqual(cut.Sites, again.Sites))
	}
	if len(cut.Sites) != len(full.Sites) {
		t.Fatalf("budgeted run has %d sites, unbudgeted %d", len(cut.Sites), len(full.Sites))
	}
	kept := 0
	for i, s := range cut.Sites {
		f := full.Sites[i]
		switch {
		case s.By == exact.ByMustMay || s.By == exact.ByBypass:
			if s.By != f.By || s.Verdict != f.Verdict {
				t.Errorf("%s b%d i%d: prefilter %s by %s became %s by %s under the budget",
					s.Func, s.Block, s.Index, f.Verdict, f.By, s.Verdict, s.By)
			}
		case s.By == exact.ByExact:
			kept++
			if f.By != exact.ByExact || s.Verdict != f.Verdict {
				t.Errorf("%s b%d i%d: budgeted exact %s, unbudgeted %s by %s",
					s.Func, s.Block, s.Index, s.Verdict, f.Verdict, f.By)
			}
		}
	}
	if kept == 0 || kept == full.ExactHit+full.ExactMiss {
		t.Errorf("budgeted run kept %d of %d exact verdicts; half the steps should keep some and lose some",
			kept, full.ExactHit+full.ExactMiss)
	}
}
