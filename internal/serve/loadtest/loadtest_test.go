package loadtest

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/serve"
)

// TestRunMixedStorm boots an in-process Debug daemon and drives the full
// deterministic mix — dedup-heavy evals, periodic check/exact, budget
// bombs, injected panics — asserting the daemon survives everything with
// structured answers only.
func TestRunMixedStorm(t *testing.T) {
	s, err := serve.New(serve.Config{Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := Run(Options{
		BaseURL:     ts.URL,
		Requests:    600,
		Concurrency: 16,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransportErrors != 0 {
		t.Fatalf("%d transport errors: the daemon dropped requests", rep.TransportErrors)
	}
	if !rep.HealthyAfter {
		t.Error("daemon unhealthy after the storm")
	}
	if rep.PanicsInjected == 0 || rep.PanicsInjected != rep.PanicsIsolated+rep.PanicsShed {
		t.Errorf("panics injected=%d isolated=%d shed=%d, want injected = isolated+shed, nonzero",
			rep.PanicsInjected, rep.PanicsIsolated, rep.PanicsShed)
	}
	if rep.BudgetsInjected == 0 || rep.BudgetsStructured != rep.BudgetsInjected {
		t.Errorf("budget bombs=%d, structured=%d, want equal and nonzero",
			rep.BudgetsInjected, rep.BudgetsStructured)
	}
	if rep.Outcomes[serve.KindBudget] == 0 {
		t.Error("no budget bomb ever reached a worker")
	}
	if rep.Deduped == 0 {
		t.Error("dedup-heavy mix produced zero single-flight hits")
	}
	if rep.Outcomes["ok"] == 0 {
		t.Error("no successful requests")
	}
	if rep.Latency.Count == 0 || rep.P50NS == 0 {
		t.Errorf("degenerate latency aggregation: %+v", rep.Latency)
	}

	// Round-trip through the persisted form and the CI verifier.
	got, err := VerifyBench(encode(t, rep))
	if err != nil {
		t.Fatal(err)
	}
	if got.Throughput != rep.Throughput || got.Seed != rep.Seed {
		t.Errorf("round-trip mismatch: %+v vs %+v", got, rep)
	}
}

// TestDeterministicMix: the same seed generates the same source pool and
// per-index requests.
func TestDeterministicMix(t *testing.T) {
	mk := func() []string {
		// Rebuild the pool exactly as Run does.
		rng := newSeededRand(42)
		pool := make([]string, sourcePool)
		for i := range pool {
			pool[i] = genSource(rng)
		}
		return pool
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pool diverges at %d", i)
		}
		if !strings.Contains(a[i], "print(s);") {
			t.Fatalf("generated program malformed:\n%s", a[i])
		}
	}
	ra := requestFor(11, a) // checkEvery is 11
	if len(ra.Want) < 3 {
		t.Errorf("index 11 should include check tier, got %v", ra.Want)
	}
	rb := requestFor(54, a) // budgetEvery is 53: 54%53==1
	if rb.MaxSteps == 0 || rb.Source != spin {
		t.Errorf("index 54 should be a budget bomb, got %+v", rb)
	}
}

// TestVerifyBenchRejects: the verifier refuses wrong schemas, transport
// errors and unknown fields.
func TestVerifyBenchRejects(t *testing.T) {
	bad := &Report{Schema: "wrong/v0", Requests: 1, Throughput: 1,
		Latency: serve.NewHistogram()}
	bad.Latency.Observe(int64(time.Millisecond))
	if _, err := VerifyBench(encode(t, bad)); err == nil {
		t.Error("wrong schema accepted")
	}
	crashy := &Report{Schema: BenchSchema, Requests: 10, Throughput: 5,
		TransportErrors: 2, Latency: serve.NewHistogram(),
		Outcomes: map[string]int64{"ok": 8}}
	crashy.Latency.Observe(int64(time.Millisecond))
	if _, err := VerifyBench(encode(t, crashy)); err == nil {
		t.Error("report with transport errors accepted")
	}
	good := *crashy
	good.TransportErrors = 0
	if _, err := VerifyBench(encode(t, &good)); err != nil {
		t.Fatalf("sound report rejected: %v", err)
	}
	foreign := strings.Replace(encode(t, &good).String(), `"seed":`, `"host": "ci", "seed":`, 1)
	if _, err := VerifyBench(strings.NewReader(foreign)); err == nil {
		t.Error("report with an unknown field accepted")
	}
}

// encode writes a report in its persisted layout.
func encode(t *testing.T, rep *Report) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := ledger.WriteIndent(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return &buf
}
