package artifact

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/vm"
)

// gcSource returns a distinct compilable program per index, so each one
// lands in its own store entry.
func gcSource(i int) string {
	return fmt.Sprintf(`
int g;
void main() {
    int i;
    for (i = 0; i < %d; i++) g = g + i;
    print(g);
}
`, 10+i)
}

// storeFiles maps every finished entry in the store to its size.
func storeFiles(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, sub := range []string{"builds", "runs"} {
		matches, err := filepath.Glob(filepath.Join(dir, sub, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			info, err := os.Stat(m)
			if err != nil {
				t.Fatal(err)
			}
			out[m] = info.Size()
		}
	}
	return out
}

func storeBytes(files map[string]int64) int64 {
	var n int64
	for _, sz := range files {
		n += sz
	}
	return n
}

// seedStore populates dir with nBypass one-shot entries and nLive
// campaign-class entries (each a build + one run), returning the cache.
func seedStore(t *testing.T, c *Cache, nBypass, nLive int) {
	t.Helper()
	cfg := core.Config{Mode: core.Unified}
	for i := 0; i < nBypass; i++ {
		art, err := c.Build(gcSource(i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run1(c, art, vm.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	sess := c.NewSession(ClassLive, false)
	defer sess.Close()
	for i := 0; i < nLive; i++ {
		art, err := sess.BuildIR(gcSource(1000+i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.RunBatch(art, []vm.Config{{}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGCBudgetNeverExceeded: after a GC cycle the store fits the budget —
// measured against the real files on disk, not the report — unless the
// report explicitly concedes OverBudget.
func TestGCBudgetNeverExceeded(t *testing.T) {
	dir := t.TempDir()
	c := diskCache(t, dir)
	seedStore(t, c, 6, 2)

	before := storeFiles(t, dir)
	if len(before) == 0 {
		t.Fatal("seeding produced no store entries")
	}
	total := storeBytes(before)

	for _, frac := range []int64{2, 4, 100} {
		budget := total / frac
		if budget == 0 {
			budget = 1
		}
		rep, err := c.GC(budget)
		if err != nil {
			t.Fatalf("GC(%d): %v", budget, err)
		}
		after := storeFiles(t, dir)
		onDisk := storeBytes(after)
		if onDisk != rep.RemainingBytes {
			t.Errorf("budget %d: report says %d bytes remain, disk has %d", budget, rep.RemainingBytes, onDisk)
		}
		if len(after) != rep.RemainingFiles {
			t.Errorf("budget %d: report says %d files remain, disk has %d", budget, rep.RemainingFiles, len(after))
		}
		if onDisk > budget && !rep.OverBudget {
			t.Errorf("budget %d: store left at %d bytes without conceding OverBudget", budget, onDisk)
		}
		if rep.OverBudget && rep.Protected == 0 {
			t.Errorf("budget %d: OverBudget with nothing protected — eviction stopped early", budget)
		}
	}
}

// TestGCNeverEvictsPinned: entries pinned by an open session survive any
// budget, and the report concedes OverBudget rather than breaking the pin.
func TestGCNeverEvictsPinned(t *testing.T) {
	dir := t.TempDir()
	c := diskCache(t, dir)
	cfg := core.Config{Mode: core.Unified}

	sess := c.NewSession(ClassLive, true) // pinned: a campaign in flight
	art, err := sess.BuildIR(gcSource(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunBatch(art, []vm.Config{{}}); err != nil {
		t.Fatal(err)
	}
	pinned := storeFiles(t, dir)
	if len(pinned) == 0 {
		t.Fatal("pinned session wrote nothing")
	}
	seedStore(t, c, 3, 0) // evictable churn alongside the pinned entries

	rep, err := c.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	for path := range pinned {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("pinned entry evicted: %s", filepath.Base(path))
		}
	}
	if rep.Protected != len(pinned) {
		t.Errorf("Protected = %d, want %d", rep.Protected, len(pinned))
	}
	if !rep.OverBudget {
		t.Error("pinned entries exceed a 1-byte budget but OverBudget is false")
	}

	// Once the session closes, the same entries become fair game.
	sess.Close()
	rep, err = c.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemainingFiles != 0 {
		t.Errorf("after unpin, %d files survived a 1-byte budget", rep.RemainingFiles)
	}
}

// TestGCEvictsBypassBeforeLive: under a budget that can be met from
// one-shot traffic alone, no campaign-class entry is touched.
func TestGCEvictsBypassBeforeLive(t *testing.T) {
	dir := t.TempDir()
	c := diskCache(t, dir)

	// Live entries first, then bypass churn with NEWER mtimes: if the
	// eviction order used recency instead of class, the live entries
	// (coldest) would go first.
	seedStore(t, c, 0, 2)
	liveFiles := storeFiles(t, dir)
	old := time.Now().Add(-time.Hour) //unilint:ok wallclock test staging of mtimes only
	for path := range liveFiles {
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}
	seedStore(t, c, 4, 0)

	all := storeFiles(t, dir)
	liveBytes := storeBytes(liveFiles)
	budget := liveBytes + 1 // everything bypass must go; everything live fits
	rep, err := c.GC(budget)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EvictedLive != 0 {
		t.Errorf("EvictedLive = %d: campaign entries evicted while bypass churn remained", rep.EvictedLive)
	}
	if want := len(all) - len(liveFiles); rep.EvictedBypass != want {
		t.Errorf("EvictedBypass = %d, want %d", rep.EvictedBypass, want)
	}
	for path := range liveFiles {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("live entry evicted: %s", filepath.Base(path))
		}
	}
}

// TestGCColdestFirstWithinClass: same class, different last access — the
// colder entry is the victim.
func TestGCColdestFirstWithinClass(t *testing.T) {
	dir := t.TempDir()
	c := diskCache(t, dir)
	cfg := core.Config{Mode: core.Unified}

	if _, err := c.Build(gcSource(0), cfg); err != nil {
		t.Fatal(err)
	}
	files := storeFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("want 1 entry, got %d", len(files))
	}
	var coldPath string
	for p := range files {
		coldPath = p
	}
	old := time.Now().Add(-time.Hour) //unilint:ok wallclock test staging of mtimes only
	if err := os.Chtimes(coldPath, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(gcSource(1), cfg); err != nil {
		t.Fatal(err)
	}

	total := storeBytes(storeFiles(t, dir))
	rep, err := c.GC(total - 1) // exactly one eviction needed
	if err != nil {
		t.Fatal(err)
	}
	if rep.EvictedBypass != 1 {
		t.Fatalf("EvictedBypass = %d, want 1", rep.EvictedBypass)
	}
	if _, err := os.Stat(coldPath); err == nil {
		t.Error("the cold entry survived while a warmer same-class entry was evicted")
	}
}

// TestGCSalvagesCorruptEntries: a damaged store file found during the
// scan is counted, warned about, and removed (the PR convention for
// read-path corruption), and never counts toward the byte budget.
func TestGCSalvagesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	c := diskCache(t, dir)
	seedStore(t, c, 2, 0)

	var warns []string
	c.SetWarnFunc(func(msg string) { warns = append(warns, msg) })

	files := storeFiles(t, dir)
	var victim string
	for p := range files {
		if victim == "" || p < victim {
			victim = p // deterministic pick
		}
	}
	if err := os.WriteFile(victim, []byte("{ not json"), 0o666); err != nil {
		t.Fatal(err)
	}
	// An orphaned partial from a crashed write rides along.
	partial := filepath.Join(dir, "builds", "deadbeef.json.partial")
	if err := os.WriteFile(partial, []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}

	rep, err := c.GC(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", rep.Corrupt)
	}
	if rep.Partials != 1 {
		t.Errorf("Partials = %d, want 1", rep.Partials)
	}
	if _, err := os.Stat(victim); err == nil {
		t.Error("corrupt entry left in the store")
	}
	if _, err := os.Stat(partial); err == nil {
		t.Error("orphaned .partial left in the store")
	}
	if st := c.Stats(); st.Corrupt == 0 {
		t.Error("salvage not counted in cache stats")
	}
	found := false
	for _, w := range warns {
		if strings.Contains(w, "salvag") || strings.Contains(w, "corrupt") || strings.Contains(w, "GC") {
			found = true
		}
	}
	if !found {
		t.Errorf("no salvage warning emitted; warns = %q", warns)
	}
}

// TestGCRejectsDegenerateCalls: memory-only caches and non-positive
// budgets are errors, not silent no-ops.
func TestGCRejectsDegenerateCalls(t *testing.T) {
	if _, err := New().GC(1 << 20); err == nil {
		t.Error("GC on a memory-only cache succeeded")
	}
	c := diskCache(t, t.TempDir())
	if _, err := c.GC(0); err == nil {
		t.Error("GC with budget 0 succeeded")
	}
	if _, err := c.GC(-5); err == nil {
		t.Error("GC with negative budget succeeded")
	}
}

// TestRunBatchMatchesIndividualRuns: the batched replay path (one VM
// execution, trace replayed per geometry) is bit-equal to running every
// geometry directly on a cold cache.
func TestRunBatchMatchesIndividualRuns(t *testing.T) {
	cfg := core.Config{Mode: core.Unified}
	geoms := []cache.Config{
		{Sets: 8, Ways: 1, LineWords: 1, Policy: cache.LRU, HonorBypass: true, Dead: cache.DeadInvalidate},
		{Sets: 16, Ways: 2, LineWords: 1, Policy: cache.FIFO},
		{Sets: 32, Ways: 4, LineWords: 1, Policy: cache.Random, Seed: 7},
	}
	cfgs := make([]vm.Config, len(geoms))
	for i, g := range geoms {
		cfgs[i] = vm.Config{Cache: g}
	}

	batched := New()
	art, err := batched.Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := batched.RunBatch(art, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if st := batched.Stats(); st.BatchReplays == 0 {
		t.Error("RunBatch never replayed — every geometry executed directly")
	}

	for i, vc := range cfgs {
		solo := New()
		sart, err := solo.Build(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := run1(solo, sart, vc)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Output != want.Output ||
			got[i].Instructions != want.Instructions ||
			got[i].Loads != want.Loads ||
			got[i].Stores != want.Stores ||
			got[i].CacheStats != want.CacheStats {
			t.Errorf("geometry %d: batched result differs from direct run:\nbatch: %+v\nsolo:  %+v", i, got[i], want)
		}
	}
}
