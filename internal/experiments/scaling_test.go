package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/progen"
	"repro/internal/sweep"
)

// corpusFloor is the E12 size requirement: every campaign program must
// carry at least ten times the benchmark suite's mean site count (67).
const corpusFloor = 670

// TestScalingCorpusSize re-derives the corpus invariant DefaultScalingSpec
// documents: twenty seeds, each compiling to a program of at least ten
// benchmark-suites' worth of reference sites.
func TestScalingCorpusSize(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles twenty large generated programs")
	}
	spec := DefaultScalingSpec()
	if len(spec.Seeds) != 20 {
		t.Fatalf("campaign has %d seeds, want 20", len(spec.Seeds))
	}
	for _, seed := range spec.Seeds {
		src := progen.Source(seed, progen.ScaleKnobs(spec.Scale))
		comp, err := core.Compile(src, core.Config{Mode: core.Conventional, StackScalars: true, Check: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sites := 0
		for _, f := range comp.Prog.Funcs {
			sites += core.CollectStats(f).Sites
		}
		if sites < corpusFloor {
			t.Errorf("seed %d: %d sites, below the %d floor", seed, sites, corpusFloor)
		}
	}
}

// smallSpec keeps the unit tests fast: one mid-size program, a budget that
// never exhausts on it.
func smallSpec() ScalingSpec {
	return ScalingSpec{Seeds: []int64{3}, Scale: 1, Budget: 2_000_000}
}

// TestScalingRecordsShape: one record per seed, keyed with the solver
// suffix the committed artifact carries, with the instrumentation columns
// filled.
func TestScalingRecordsShape(t *testing.T) {
	recs, err := RecordsScaling(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Experiment != ExpScaling || r.Solver != exact.SolverAntichain {
		t.Errorf("record %q missing provenance: experiment=%q solver=%q", r.Key, r.Experiment, r.Solver)
	}
	if r.StaticSites == 0 || r.AnalysisSteps == 0 {
		t.Errorf("record %q missing instrumentation: sites=%d steps=%d", r.Key, r.StaticSites, r.AnalysisSteps)
	}
	if !strings.HasSuffix(r.Key, "/"+exact.SolverAntichain) {
		t.Errorf("key %q does not end in the solver suffix", r.Key)
	}
}

// TestScalingJSONByteStable: the checked-in artifact must be byte-identical
// across runs, and salvageable by the sweep reader.
func TestScalingJSONByteStable(t *testing.T) {
	spec := smallSpec()
	var docs [2]string
	for i := range docs {
		recs, err := RecordsScaling(spec)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := WriteScalingJSON(&sb, spec, recs); err != nil {
			t.Fatal(err)
		}
		docs[i] = sb.String()
	}
	if docs[0] != docs[1] {
		t.Errorf("two runs produced different artifacts:\n%s\nvs\n%s", docs[0], docs[1])
	}
	if !strings.Contains(docs[0], ScalingSchema) {
		t.Errorf("artifact missing schema tag %q", ScalingSchema)
	}
	got, dropped, err := sweep.ReadRecords(strings.NewReader(docs[0]))
	if err != nil {
		t.Fatalf("sweep reader rejected the artifact: %v", err)
	}
	if dropped != 0 || len(got) != 1 {
		t.Errorf("sweep salvage recovered %d records (%d dropped), want 1 (0)", len(got), dropped)
	}
	if _, err := VerifyScaling(strings.NewReader(docs[0])); err != nil {
		t.Errorf("strict reader rejected the artifact: %v", err)
	}
	for name, bad := range map[string]string{
		"seed without a record": strings.Replace(docs[0], `"seeds": [3]`, `"seeds": [3,4]`, 1),
		"tampered record key":   strings.Replace(docs[0], `"bench":"progen-003"`, `"bench":"progen-004"`, 1),
	} {
		if bad == docs[0] {
			t.Fatalf("%s: the edit did not apply", name)
		}
		if _, err := VerifyScaling(strings.NewReader(bad)); err == nil {
			t.Errorf("strict reader accepted an artifact with a %s", name)
		}
	}
}
