package sweep

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/artifact"
)

// testGrid is small enough for unit tests: 2 fast benchmarks, 8 units.
func testGrid() Grid {
	return Grid{
		Benchmarks: []string{"queen", "sieve"},
		Compilers:  []string{CompilerBaseline},
		Modes:      []string{ModeConventional, ModeUnified},
		Sets:       []int{8},
		Ways:       []int{1, 2},
		LineWords:  []int{1},
		Policies:   []string{"lru"},
	}
}

func mustRun(t *testing.T, g Grid, opt Options) *Result {
	t.Helper()
	res, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func encode(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res.Grid, res.Records); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestUnitsCanonicalOrder(t *testing.T) {
	g := testGrid()
	units, err := g.Units()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != g.Size() {
		t.Fatalf("units = %d, want %d", len(units), g.Size())
	}
	wantKeys := []string{
		"queen/baseline/conventional/s8.w1.l1/lru/off,nobypass",
		"queen/baseline/conventional/s8.w2.l1/lru/off,nobypass",
		"queen/baseline/unified/s8.w1.l1/lru/invalidate,bypass",
		"queen/baseline/unified/s8.w2.l1/lru/invalidate,bypass",
		"sieve/baseline/conventional/s8.w1.l1/lru/off,nobypass",
		"sieve/baseline/conventional/s8.w2.l1/lru/off,nobypass",
		"sieve/baseline/unified/s8.w1.l1/lru/invalidate,bypass",
		"sieve/baseline/unified/s8.w2.l1/lru/invalidate,bypass",
	}
	for i, u := range units {
		if u.Index != i {
			t.Errorf("unit %d has Index %d", i, u.Index)
		}
		if u.Key() != wantKeys[i] {
			t.Errorf("unit %d key = %q, want %q", i, u.Key(), wantKeys[i])
		}
	}
}

func TestGridValidate(t *testing.T) {
	cases := []func(*Grid){
		func(g *Grid) { g.Benchmarks = []string{"nosuch"} },
		func(g *Grid) { g.Compilers = []string{"llvm"} },
		func(g *Grid) { g.Modes = []string{"both"} },
		func(g *Grid) { g.Policies = []string{"plru"} },
		func(g *Grid) { g.Policies = []string{"min"} },
		func(g *Grid) { g.Sets = []int{7} },
		func(g *Grid) { g.Sets = nil },
	}
	for i, mutate := range cases {
		g := testGrid()
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: bad grid validated", i)
		}
	}
	if err := PaperGrid().Validate(); err != nil {
		t.Errorf("paper grid invalid: %v", err)
	}
	if got := PaperGrid().Size(); got != 432 {
		t.Errorf("paper grid size = %d, want 432", got)
	}
}

// TestDeterministicAcrossWorkerCounts is the engine's core contract: the
// serialized artifact is byte-identical no matter how work is scheduled.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	g := testGrid()
	one := encode(t, mustRun(t, g, Options{Workers: 1}))
	eight := encode(t, mustRun(t, g, Options{Workers: 8}))
	if !bytes.Equal(one, eight) {
		t.Fatalf("workers=1 and workers=8 artifacts differ:\n--- 1 ---\n%s\n--- 8 ---\n%s", one, eight)
	}
	a, err := Verify(bytes.NewReader(one))
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(a.Records) != g.Size() {
		t.Fatalf("Verify read %d records, want %d", len(a.Records), g.Size())
	}
}

// TestSharedArtifactCache runs the same grid twice against one cache and
// checks the second pass compiles nothing.
func TestSharedArtifactCache(t *testing.T) {
	g := testGrid()
	arts := artifact.New()
	mustRun(t, g, Options{Workers: 4, Artifacts: arts})
	first := arts.Stats()
	// 2 benchmarks x 1 compiler x 2 modes = 4 distinct compilations.
	if first.BuildMisses != 4 {
		t.Errorf("first pass compiled %d artifacts, want 4", first.BuildMisses)
	}
	mustRun(t, g, Options{Workers: 4, Artifacts: arts})
	second := arts.Stats()
	if second.BuildMisses != first.BuildMisses {
		t.Errorf("second pass recompiled: misses %d -> %d", first.BuildMisses, second.BuildMisses)
	}
	if second.RunMisses != first.RunMisses {
		t.Errorf("second pass resimulated: misses %d -> %d", first.RunMisses, second.RunMisses)
	}
}

// TestResumeFromTruncatedFile cuts a result file mid-record and checks the
// engine re-runs exactly the missing units and reproduces the full
// artifact byte-for-byte.
func TestResumeFromTruncatedFile(t *testing.T) {
	g := testGrid()
	full := mustRun(t, g, Options{Workers: 2})
	art := encode(t, full)

	// Truncate at 60% — inside the record stream, mid-line.
	cut := art[:len(art)*6/10]
	done, _, err := ReadRecords(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) == 0 || len(done) >= g.Size() {
		t.Fatalf("salvaged %d records from truncated file, want in (0, %d)", len(done), g.Size())
	}

	resumed := mustRun(t, g, Options{Workers: 2, Done: done})
	if want := g.Size() - len(done); resumed.Ran != want {
		t.Errorf("resume ran %d units, want %d (only the missing ones)", resumed.Ran, want)
	}
	if got := encode(t, resumed); !bytes.Equal(got, art) {
		t.Error("resumed artifact differs from the full run")
	}
}

// TestSalvageDropsDamagedKeyLines feeds ReadRecords a line that is valid
// JSON but whose key no longer derives from its fields — the shape a
// record cut mid-field (or bit-flipped) can take while still parsing.
// Lenient salvage must drop it, count it, and keep intact neighbors.
func TestSalvageDropsDamagedKeyLines(t *testing.T) {
	good := Record{Bench: "queen", Compiler: CompilerBaseline, Mode: ModeConventional,
		Sets: 8, Ways: 1, LineWords: 1, Policy: "lru", Dead: "off"}
	good.SetKey()
	goodLine, err := good.MarshalLine()
	if err != nil {
		t.Fatal(err)
	}

	// Same key, different fields: the key does not re-derive.
	damaged := good
	damaged.Sets = 32
	damagedLine, err := damaged.MarshalLine()
	if err != nil {
		t.Fatal(err)
	}

	// A record whose key field survived as the empty string.
	empty := good
	empty.Key = ""
	emptyLine, err := empty.MarshalLine()
	if err != nil {
		t.Fatal(err)
	}

	in := string(goodLine) + ",\n" + string(damagedLine) + ",\n" + string(emptyLine) + "\n"
	recs, dropped, err := ReadRecords(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2 (mismatched key + empty key)", dropped)
	}
	if len(recs) != 1 {
		t.Fatalf("salvaged %d records, want 1", len(recs))
	}
	if rec, ok := recs[good.Key]; !ok || rec.Sets != 8 {
		t.Errorf("intact record not salvaged: %+v", recs)
	}
}

// TestResumeIgnoresForeignRecords checks records outside the grid don't
// leak into the output.
func TestResumeIgnoresForeignRecords(t *testing.T) {
	g := testGrid()
	full := mustRun(t, g, Options{Workers: 2})
	done := map[string]Record{"bogus/key": {Key: "bogus/key", Bench: "bogus"}}
	resumed := mustRun(t, g, Options{Workers: 2, Done: done})
	if resumed.Ran != g.Size() {
		t.Errorf("ran %d, want %d (foreign record must not satisfy any unit)", resumed.Ran, g.Size())
	}
	if !bytes.Equal(encode(t, resumed), encode(t, full)) {
		t.Error("foreign record changed the artifact")
	}
}

func TestProgressStream(t *testing.T) {
	g := testGrid()
	var calls int
	var last int
	mustRun(t, g, Options{Workers: 3, Progress: func(done, total int, r Record) {
		calls++
		last = done
		if total != g.Size() {
			t.Errorf("total = %d, want %d", total, g.Size())
		}
		if r.Key == "" || r.Refs == 0 {
			t.Errorf("progress record incomplete: %+v", r)
		}
	}})
	if calls != g.Size() || last != g.Size() {
		t.Errorf("progress calls = %d (last done %d), want %d", calls, last, g.Size())
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	g := testGrid()
	art := string(encode(t, mustRun(t, g, Options{Workers: 2})))

	if _, err := Verify(strings.NewReader(art[:len(art)/2])); err == nil {
		t.Error("truncated artifact verified")
	}
	tampered := strings.Replace(art, `"bench":"queen"`, `"bench":"rook"`, 1)
	if _, err := Verify(strings.NewReader(tampered)); err == nil {
		t.Error("tampered record key verified")
	}
	wrongSchema := strings.Replace(art, Schema, "unicache-sweep/v0", 1)
	if _, err := Verify(strings.NewReader(wrongSchema)); err == nil {
		t.Error("wrong schema verified")
	}
	if _, err := Verify(strings.NewReader(art + "{}\n")); err == nil {
		t.Error("artifact with trailing data verified")
	}
}

// TestRecordsCarryTheSweepSchema spot-checks one unified unit's semantics:
// bypass references must appear, DRAM accounting must hold together.
func TestRecordsCarryTheSweepSchema(t *testing.T) {
	res := mustRun(t, testGrid(), Options{Workers: 2})
	for _, r := range res.Records {
		if r.Refs == 0 || r.Instructions == 0 || r.DRAMWords == 0 {
			t.Errorf("%s: empty measurement: %+v", r.Key, r)
		}
		if want := (r.Fetches+r.Writebacks)*int64(r.LineWords) + r.BypassReads + r.BypassWrites; r.DRAMWords != want {
			t.Errorf("%s: DRAM words %d, want %d", r.Key, r.DRAMWords, want)
		}
		if r.Mode == ModeUnified && r.BypassRefs == 0 {
			t.Errorf("%s: unified run issued no bypass references", r.Key)
		}
		if r.Mode == ModeConventional && r.BypassRefs != 0 {
			t.Errorf("%s: conventional run issued %d bypass references", r.Key, r.BypassRefs)
		}
		if r.Hits+r.Misses != r.CachedRefs {
			t.Errorf("%s: hits+misses != cached refs", r.Key)
		}
	}
}

// TestOneVMRunPerIdentity: a sweep executes each execution identity's
// program once; every other unit of the identity is a batch replay of
// that run's trace.
func TestOneVMRunPerIdentity(t *testing.T) {
	g := testGrid()
	units, err := g.Units()
	if err != nil {
		t.Fatal(err)
	}
	groups := Groups(units)
	if len(groups) != 4 {
		t.Fatalf("%d groups, want 4 (2 benchmarks x 2 modes)", len(groups))
	}
	arts := artifact.New()
	res := mustRun(t, g, Options{Workers: 2, Artifacts: arts})
	if got, want := arts.Stats().BatchReplays, int64(len(units)-len(groups)); got != want {
		t.Errorf("BatchReplays = %d, want %d (units - identities)", got, want)
	}
	if res.Workers != 2 {
		t.Errorf("Workers = %d, want 2", res.Workers)
	}
	if capped := mustRun(t, g, Options{Workers: 8}); capped.Workers != len(groups) {
		t.Errorf("8 requested workers on %d groups reported %d", len(groups), capped.Workers)
	}
}

// TestGroupsSplitSuffixes: a suffix starting inside a group keeps the rest
// of that group as its first group.
func TestGroupsSplitSuffixes(t *testing.T) {
	g := testGrid()
	g.Sets = []int{8, 16}
	units, err := g.Units()
	if err != nil {
		t.Fatal(err)
	}
	full := Groups(units)
	if len(full) != 4 || len(full[0]) != 4 {
		t.Fatalf("groups %d (first %d), want 4 of 4", len(full), len(full[0]))
	}
	tail := Groups(units[5:])
	if len(tail) != 3 || len(tail[0]) != 3 || tail[0][0].Index != 5 {
		t.Fatalf("suffix from unit 5: %d groups, first has %d units from %d; want 3, 3, 5",
			len(tail), len(tail[0]), tail[0][0].Index)
	}
	if Groups(nil) != nil {
		t.Error("no units should give no groups")
	}
}

// TestResumeMidGroup: with every other unit of a group already measured,
// the resumed sweep runs only the missing units and writes the same bytes.
func TestResumeMidGroup(t *testing.T) {
	g := testGrid()
	g.Sets = []int{8, 16}
	full := mustRun(t, g, Options{Workers: 2})
	done := map[string]Record{}
	for i := 0; i < 4; i += 2 { // the first group is units 0..3
		done[full.Records[i].Key] = full.Records[i]
	}
	resumed := mustRun(t, g, Options{Workers: 2, Done: done})
	if want := g.Size() - len(done); resumed.Ran != want {
		t.Errorf("resume ran %d units, want %d", resumed.Ran, want)
	}
	if !bytes.Equal(encode(t, resumed), encode(t, full)) {
		t.Error("mid-group resume changed the artifact")
	}
}
