package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/ledger"
	"repro/internal/progen"
	"repro/internal/sweep"
)

// ExpScaling tags the E12 record stream: the exact-analysis scaling
// campaign over generated programs far beyond benchmark size, run with
// interprocedural summaries on.
const ExpScaling = "scaling"

// ScalingSchema identifies the checked-in BENCH_exact.json artifact. The
// envelope mirrors the sweep artifact (header fields, then one Record per
// line), so sweep.ReadRecords salvages it unchanged.
const ScalingSchema = "unicache-exact-scale/v1"

// ScalingSpec parameterizes the campaign.
type ScalingSpec struct {
	Seeds  []int64 `json:"seeds"`  // progen seeds, one program each
	Scale  int     `json:"scale"`  // progen.ScaleKnobs factor
	Budget int64   `json:"budget"` // per-program step budget; 0 unlimited
}

// DefaultScalingSpec is the checked-in campaign: twenty generated programs
// at scale 6, every one at least ten times the benchmark suite's mean site
// count (67), most fifteen to a hundred times it. The seed list is the
// first twenty seeds whose compiled program has >= 670 reference sites
// (seeds 12 and 17 fall short and are skipped); TestScalingCorpusSize
// re-derives the floor. Every program runs under the same deterministic
// step budget — steps, not seconds — so exhaustion is a property of the
// program, never of the machine, and the artifact is byte-stable anywhere.
func DefaultScalingSpec() ScalingSpec {
	return ScalingSpec{
		Seeds:  []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 18, 19, 20, 21, 22},
		Scale:  6,
		Budget: 25_000_000,
	}
}

// scalingConfig is the fixed hardware point of the campaign: the paper's
// cache, conventional management (through-cache traffic everywhere — the
// hardest refinement load; unified-mode bypass bits would classify most
// sites trivially).
func scalingConfig() cache.Config {
	g := CacheGeometry{Sets: 32, Ways: 2, LineWords: 1, Policy: cache.LRU}
	return g.hardware(core.Conventional)
}

// RecordsScaling runs the campaign and returns one record per seed.
// Purely static — no simulation. WallNS is filled for the table but
// excluded from the JSON encoding, which stays byte-stable across machines
// and runs.
func RecordsScaling(spec ScalingSpec) ([]sweep.Record, error) {
	ccfg := scalingConfig()
	var out []sweep.Record
	for _, seed := range spec.Seeds {
		src := progen.Source(seed, progen.ScaleKnobs(spec.Scale))
		comp, err := core.Compile(src, core.Config{Mode: core.Conventional, StackScalars: true, Check: true})
		if err != nil {
			return nil, fmt.Errorf("progen seed %d: %w", seed, err)
		}
		opt := check.Options{
			Interproc: true,
			SavedRegs: core.SavedRegCounts(comp),
		}
		t0 := time.Now() //unilint:ok wallclock E12 measures analysis wall time; WallNS is json:"-" in sweep artifacts
		rep, err := exact.AnalyzeWith(comp.Prog, ccfg, opt, exact.Options{StepBudget: spec.Budget})
		if err != nil {
			return nil, fmt.Errorf("progen seed %d: %w", seed, err)
		}
		r := sweep.NewRecord(fmt.Sprintf("progen-%03d", seed), Baseline.String(), sweep.ModeConventional, ccfg)
		r.Experiment = ExpScaling
		// The solver name joins the key; BENCH_exact.json's keys and
		// resume identities carry it.
		r.Solver = exact.SolverAntichain
		r.SetKey()
		r.StaticSites = rep.Total
		r.StaticBypass = rep.Bypassed
		r.PreHit = rep.PreHit
		r.PreMiss = rep.PreMiss
		r.ExactHit = rep.ExactHit
		r.ExactMiss = rep.ExactMiss
		r.Irreducible = rep.Irreducible
		r.AnalysisSteps = rep.Steps
		r.AnalysisStates = rep.PeakWidth
		r.AnalysisExhausted = rep.Exhausted
		r.WallNS = time.Since(t0).Nanoseconds() //unilint:ok wallclock E12 measures analysis wall time; WallNS is json:"-" in sweep artifacts
		out = append(out, r)
	}
	return out, nil
}

// WriteScalingJSON writes the BENCH_exact.json artifact: a schema header,
// the campaign parameters, then one record per line — the same salvage
// unit sweep.ReadRecords understands. Nothing in the encoding depends on
// wall time, machine, or map order, so two runs of the same spec produce
// byte-identical files.
func WriteScalingJSON(w io.Writer, spec ScalingSpec, recs []sweep.Record) error {
	return ledger.WriteLines(w, ScalingSchema, []ledger.Field{
		{Name: "scale", Value: spec.Scale},
		{Name: "budget", Value: spec.Budget},
		{Name: "seeds", Value: spec.Seeds},
	}, "records", recs)
}

// ScalingArtifact is the decoded form of BENCH_exact.json.
type ScalingArtifact struct {
	Schema string `json:"schema"`
	ScalingSpec
	Records []sweep.Record `json:"records"`
}

// VerifyScaling strictly reads an E12 artifact (ledger.Verify).
func VerifyScaling(r io.Reader) (*ScalingArtifact, error) {
	return ledger.Verify[ScalingArtifact](r, ScalingSchema)
}

// Check requires one record per seed, and the records to pass
// sweep.CheckKeys.
func (a *ScalingArtifact) Check() error {
	if len(a.Records) != len(a.Seeds) {
		return fmt.Errorf("exact-scale: %d seeds but %d records", len(a.Seeds), len(a.Records))
	}
	return sweep.CheckKeys(a.Records)
}

// ScalingTable is the E12 result: one record per program.
type ScalingTable struct {
	Rows []sweep.Record
}

// String renders the E12 table. Wall times (the only nondeterministic
// column) are printed here and nowhere else.
func (t ScalingTable) String() string {
	var sb strings.Builder
	sb.WriteString("E12: exact-analysis scaling on generated programs (antichain solver, interprocedural summaries on)\n")
	fmt.Fprintf(&sb, "%-12s %6s | %10s %5s %4s %5s %5s %5s %9s\n",
		"program", "sites", "steps", "peak", "exh", "hit", "miss", "unk", "wall")
	for _, r := range t.Rows {
		exh := "-"
		if r.AnalysisExhausted {
			exh = "yes"
		}
		fmt.Fprintf(&sb, "%-12s %6d | %10d %5d %4s %5d %5d %5d %9s\n",
			r.Bench, r.StaticSites, r.AnalysisSteps, r.AnalysisStates, exh,
			r.PreHit+r.ExactHit, r.PreMiss+r.ExactMiss, r.Irreducible,
			time.Duration(r.WallNS).Round(time.Millisecond))
	}
	return sb.String()
}
