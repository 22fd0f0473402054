package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/sweep"
)

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want int
	}{
		{0.9, 100, 90},  // ten samples beyond p90: p90 itself
		{0.9, 200, 180}, // more than enough
		{0.9, 50, 40},   // p90 would leave 5: fall back to p80
		{0.9, 25, 15},   // p60
		{0.9, 12, 6},    // fewer than 20 samples: never below the median
		{0.9, 1, 1},
		{0.5, 100, 50},
	} {
		if got := tailRank(c.q, c.n); got != c.want {
			t.Errorf("tailRank(%v, %d) = %d, want %d", c.q, c.n, got, c.want)
		}
		if r := tailRank(c.q, c.n); c.n-r < minBeyond && r != rankAt(0.5, c.n) {
			t.Errorf("tailRank(%v, %d) leaves %d samples beyond", c.q, c.n, c.n-r)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	s := summarize(xs, 0.9)
	if s.N != 100 || s.P50 != 50 || s.Tail != 90 || s.TailQ != 0.9 {
		t.Errorf("summarize = %+v", s)
	}
	if xs[0] != 100 {
		t.Error("summarize sorted its input")
	}
	s = summarize(xs[:30], 0.9) // 100..71: rank 20 of 30 is 90
	if s.Tail != 90 || s.TailQ != 20.0/30 {
		t.Errorf("summarize 30 = %+v", s)
	}
	if got := summarize(nil, 0.9); got.N != 0 {
		t.Errorf("summarize(nil) = %+v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "core", Start: 10, End: 30, Parent: 0},
		{Name: "vm", Start: 30, End: 80, Parent: 0},
		{Name: "replay", Start: 40, End: 60, Parent: 2}, // nested two deep
		{Name: "op", Start: 200, End: 300, Parent: -1},
		{Name: "http", Start: 210, End: 260, Parent: 4}, // overlapping children
		{Name: "http", Start: 240, End: 290, Parent: 4},
		{Name: "http", Start: 295, End: 320, Parent: 4}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"op":     (100 - 20 - 50) + (100 - 80 - 5),
		"core":   20,
		"vm":     50 - 20,
		"replay": 20,
		"http":   50 + 50 + 25,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerOff(t *testing.T) {
	tr := newTracer(false)
	sp := tr.begin("op", 1, -1)
	tr.end(sp)
	if sp != -1 || len(tr.spans) != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(tr.spans))
	}
	tr = newTracer(true)
	root := tr.begin("op", 1, -1)
	child := tr.begin("core", 1, root)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("spans = %+v", tr.spans)
	}
}

// TestPaperSimDeterministic runs one unit of the bundle twice: the
// instruction count, the replay statistics and the encoded size repeat.
func TestPaperSimDeterministic(t *testing.T) {
	b := bench.Get("queen")
	u := simUnit{bench: *b, mode: sweep.ModeUnified}
	for _, pol := range paperSimPolicies {
		u.units = append(u.units, sweep.Unit{Bench: *b, Compiler: sweep.CompilerBaseline,
			Mode: sweep.ModeUnified, Sets: 32, Ways: 2, LineWords: 1, Policy: pol})
	}
	r1 := runSimUnit(u, newTracer(false), 0, -1)
	r2 := runSimUnit(u, newTracer(true), 1, -1)
	if r1.err != nil || r2.err != nil {
		t.Fatal(r1.err, r2.err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("two runs differ:\n%+v\n%+v", r1, r2)
	}
	if r1.output != b.Expected || len(r1.stats) != len(paperSimPolicies) || r1.refs == 0 {
		t.Errorf("unexpected result %+v", r1)
	}
}

// TestProgenAnalyzeDeterministic analyzes a few programs twice: the
// instruction count, the exact-analysis steps and the verdict counts
// behind decided_pct repeat.
func TestProgenAnalyzeDeterministic(t *testing.T) {
	progs := genPrograms(counter(0), 3, 0)
	for _, p := range progs {
		a1 := analyze(p.src, newTracer(false), 0)
		a2 := analyze(p.src, newTracer(true), 1)
		if a1.err != nil || a1.checkErr != nil {
			t.Fatalf("seed %d: %v %v", p.seed, a1.err, a1.checkErr)
		}
		if !sameAnalysis(a1, a2) {
			t.Errorf("seed %d: two analyses differ:\n%+v\n%+v", p.seed, a1, a2)
		}
		if a1.output != p.want || a1.steps == 0 || a1.total == 0 {
			t.Errorf("seed %d: unexpected analysis %+v", p.seed, a1)
		}
	}
}

// TestSeedsGiveDifferentInputs checks that the serve-mixed inputs (the
// schedule, the hot program of each slot and the order of the fresh
// programs) are equal for equal seeds and differ otherwise. paper-sim and
// progen-analyze draw only the order of each pass from their seed.
func TestSeedsGiveDifferentInputs(t *testing.T) {
	h1, f1, r1 := serveInputs(1, 20)
	h1b, f1b, r1b := serveInputs(1, 20)
	h2, f2, r2 := serveInputs(2, 20)
	if !reflect.DeepEqual(h1, h1b) || !reflect.DeepEqual(f1, f1b) || !reflect.DeepEqual(r1, r1b) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(f1, f2) || reflect.DeepEqual(r1, r2) {
		t.Error("seeds 1 and 2 gave the same inputs")
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Error("the hot pool depends on the seed")
	}
	for _, p := range append(h1, f1...) {
		if len(p.src) > maxSourceBytes {
			t.Errorf("seed %d: %d bytes of source", p.seed, len(p.src))
		}
	}
	o1 := rand.New(rand.NewSource(1)).Perm(len(paperSimBenchmarks) * 2)
	o2 := rand.New(rand.NewSource(2)).Perm(len(paperSimBenchmarks) * 2)
	if reflect.DeepEqual(o1, o2) {
		t.Error("seeds 1 and 2 order a paper-sim bundle alike")
	}
}

// TestScheduleMix checks the serve-mixed mix: 14 of every 24 requests are
// fresh, pairs share their slot, and variant pairs differ in geometry.
func TestScheduleMix(t *testing.T) {
	reqs, fresh := schedule(rand.New(rand.NewSource(1)), 2000)
	if share := float64(fresh) / float64(len(reqs)); share != 14.0/24 {
		t.Errorf("fresh share %.2f", share)
	}
	for i := 1; i < len(reqs); i++ {
		a, b := reqs[i-1], reqs[i]
		if a.slot != b.slot {
			continue
		}
		if a.kind != b.kind || a.prog != b.prog || (a.kind != slotDup && a.kind != slotVariant) {
			t.Fatalf("slot %d holds %+v and %+v", a.slot, a, b)
		}
		if a.kind == slotVariant && a.variant == b.variant {
			t.Fatalf("variant pair in slot %d shares geometry %d", a.slot, a.variant)
		}
	}
}

// TestServeFailuresCountSlots checks that a paced serve-mixed op is a
// slot: a slot fails once however many of its requests fail, and verify
// adds only slots run did not already count.
func TestServeFailuresCountSlots(t *testing.T) {
	m := &serveMixed{
		hot: []progenProgram{{want: "1\n"}},
		reqs: []serveReq{
			{slot: 0, kind: slotDup}, {slot: 0, kind: slotDup},
			{slot: 1, kind: slotHot},
			{slot: 2, kind: slotHot},
		},
	}
	ok := serveResult{status: http.StatusOK, resp: serve.Response{Simulate: &serve.SimResult{Output: "1\n"}}}
	wrong := ok
	wrong.resp.Simulate = &serve.SimResult{Output: "2\n"}
	run := &serveRun{res: []serveResult{{status: http.StatusServiceUnavailable}, wrong, wrong, ok}}
	o := &outcome{failed: 1, results: run} // slot 0, as run counts it
	if got := m.verify(o); got != 1 {
		t.Errorf("paced: verify = %d, want 1 (slot 1)", got)
	}
	m.openLoop = true
	if got := m.verify(o); got != 2 {
		t.Errorf("open loop: verify = %d, want 2 (requests 1 and 2)", got)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables in step with
// the benchmark definition at the repository root.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", def.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(def.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", def.PerLayer, perLayer)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads %v, want %v", names, have)
	}
}
