package difftest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/progen"
)

// TestSmokeNoMismatches is the in-tree version of the CI diff-smoke gate
// at reduced scale: a window of seeds must produce zero divergences
// across the full config and geometry matrix.
func TestSmokeNoMismatches(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	rep, err := Run(Options{Seed: 1000, N: n})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if len(rep.Mismatches) != 0 {
		mm := rep.Mismatches[0]
		t.Fatalf("%d mismatches; first: seed=%d config=%s geom=%s\nwant %q\ngot  %q\nminimized:\n%s",
			len(rep.Mismatches), mm.Seed, mm.Config, mm.Geometry, mm.Want, mm.Got, mm.Minimized)
	}
	if rep.SkippedInvalid != 0 {
		t.Errorf("%d programs classified invalid — generator safety bug", rep.SkippedInvalid)
	}
	if rep.Compared == 0 {
		t.Fatal("no programs compared")
	}
	t.Logf("programs=%d compared=%d runs=%d skipBudget=%d skipTrap=%d",
		rep.Programs, rep.Compared, rep.Runs, rep.SkippedBudget, rep.SkippedTrap)
}

// plantBug flips every slt into sle — an off-by-one every loop bound and
// comparison feels — simulating a real codegen fault.
func plantBug(p *isa.Program) {
	for i := range p.Instrs {
		if p.Instrs[i].Op == isa.SLT {
			p.Instrs[i].Op = isa.SLE
		}
	}
}

// TestPlantedBugCaught: with a deliberate codegen fault in place, the
// harness must flag mismatches quickly, and the shrinker must reduce a
// failing program to a tiny reproducer (the acceptance bar is <= 15
// non-blank lines).
func TestPlantedBugCaught(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(Options{Seed: 1, N: 5, Mutate: plantBug, CorpusDir: dir})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if len(rep.Mismatches) == 0 {
		t.Fatal("planted slt->sle fault not detected over 5 programs")
	}
	mm := rep.Mismatches[0]
	if mm.Minimized == "" {
		t.Fatal("shrinker produced no reproducer")
	}
	if mm.MinLines > 15 {
		t.Errorf("minimized reproducer is %d lines, want <= 15:\n%s", mm.MinLines, mm.Minimized)
	}
	t.Logf("minimized to %d lines:\n%s", mm.MinLines, mm.Minimized)

	// The reproducer must itself still fail under the planted bug...
	mms, err := CheckSource(mm.Minimized, Options{Mutate: plantBug})
	if err != nil {
		t.Fatalf("reproducer invalid: %v", err)
	}
	if len(mms) == 0 {
		t.Error("minimized reproducer no longer triggers the planted bug")
	}
	// ...and pass cleanly without it (i.e., it isolates the fault, not
	// some unrelated brokenness).
	mms, err = CheckSource(mm.Minimized, Options{})
	if err != nil {
		t.Fatalf("reproducer invalid without bug: %v", err)
	}
	if len(mms) != 0 {
		t.Errorf("minimized reproducer fails even without the planted bug: %+v", mms[0])
	}

	// Corpus artifacts were written.
	full, _ := filepath.Glob(filepath.Join(dir, "*.mc"))
	if len(full) == 0 {
		t.Error("no corpus files written on mismatch")
	}
}

// TestShrinkPredicateRespected: Shrink must never return a program the
// predicate rejects, and must return the input unchanged when the input
// doesn't fail.
func TestShrinkPredicateRespected(t *testing.T) {
	src := progen.Source(3, progen.DefaultKnobs())
	if got := Shrink(src, func(string) bool { return false }); got != src {
		t.Error("non-failing input must come back unchanged")
	}
	// Predicate: program still contains a call to print. The shrinker
	// should strip nearly everything else.
	min := Shrink(src, func(cand string) bool {
		return strings.Contains(cand, "print(")
	})
	if !strings.Contains(min, "print(") {
		t.Fatal("shrinker violated its predicate")
	}
	if CountLines(min) >= CountLines(src) {
		t.Errorf("no reduction: %d -> %d lines", CountLines(src), CountLines(min))
	}
}

// TestCheckSourceCleanProgram: a hand-written program with known output
// must sail through the full matrix.
func TestCheckSourceCleanProgram(t *testing.T) {
	mms, err := CheckSource(`
int a[8];
void main() {
    int i;
    for (i = 0; i < 8; i++) { a[i] = i * 3; }
    int s;
    s = 0;
    for (i = 0; i < 8; i++) { s += a[i]; }
    print(s);
}`, Options{})
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	if len(mms) != 0 {
		t.Fatalf("unexpected mismatch: %+v", mms[0])
	}
}

// TestMatrixShape guards the acceptance-level claims: both management
// modes and at least three distinct cache geometries are exercised.
func TestMatrixShape(t *testing.T) {
	var uni, conv bool
	for _, c := range Configs() {
		if strings.HasPrefix(c.Name, "uni-") {
			uni = true
		}
		if strings.HasPrefix(c.Name, "conv-") {
			conv = true
		}
	}
	if !uni || !conv {
		t.Error("config matrix must cover both management modes")
	}
	if len(Geometries()) < 3 {
		t.Errorf("need >= 3 cache geometries, have %d", len(Geometries()))
	}
}

// TestCorpusDirErrorsSurface: an unwritable corpus dir is a harness
// error, not a silent drop.
func TestCorpusDirErrorsSurface(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root; permission bits don't bind")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o500); err != nil {
		t.Skip("cannot drop write permission")
	}
	defer os.Chmod(dir, 0o755)
	_, err := Run(Options{Seed: 1, N: 3, Mutate: plantBug,
		CorpusDir: filepath.Join(dir, "sub")})
	if err == nil {
		t.Error("expected corpus write error")
	}
}

// TestExampleReproducers replays every shrunk reproducer checked into
// examples/difftest through the full config × geometry matrix. These are
// programs that once exposed a real or planted fault; they must stay
// clean forever.
func TestExampleReproducers(t *testing.T) {
	paths, err := filepath.Glob("../../examples/difftest/*.mc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no reproducers found (err=%v) — examples/difftest must not be empty", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		mms, err := CheckSource(string(src), Options{})
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(p), err)
			continue
		}
		for _, mm := range mms {
			t.Errorf("%s: config=%s geom=%s want %q got %q",
				filepath.Base(p), mm.Config, mm.Geometry, mm.Want, mm.Got)
		}
	}
}

// splitSrc writes and reads back words on both sides of the middle of a
// 1<<20-word memory, where the memory image (internal/memimg) divides its
// low (globals) segment from its high (stack) one: the global array runs
// from address 64 across the split at 1<<19, and main's locals sit at the
// top of memory. Words never written must read as zero.
const splitSrc = `
int big[524300];
int poke(int i, int v) { big[i] = v; return big[i]; }
void main() {
    int loc[4];
    int lo;
    int hi;
    lo = 524287 - 64;
    hi = lo + 1;
    loc[0] = 5;
    loc[3] = 6;
    big[lo] = 11;
    big[hi] = 22;
    big[lo - 1] = loc[0] + big[lo];
    big[hi + 1] = loc[3] + big[hi];
    print(big[lo - 1]);
    print(big[lo]);
    print(big[hi]);
    print(big[hi + 1]);
    print(big[hi + 2]);
    print(big[0]);
    print(poke(524299, 7));
    print(big[524298]);
    print(loc[0] + loc[3]);
}
`

// TestSegmentSplitAgrees runs splitSrc under the reference interpreter,
// the IR interpreter and the VM (every compile config and cache
// geometry), all with 1<<20 words of memory, and requires one output.
func TestSegmentSplitAgrees(t *testing.T) {
	const want = "16\n11\n22\n28\n0\n0\n7\n0\n11\n"
	o := Options{MemWords: 1 << 20}
	if got, err := reference(splitSrc, o.withDefaults()); err != nil || got != want {
		t.Fatalf("refint: output %q, err %v; want %q", got, err, want)
	}
	mms, err := CheckSource(splitSrc, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range mms {
		t.Errorf("config=%s geom=%s want %q got %q", mm.Config, mm.Geometry, mm.Want, mm.Got)
	}
}
