package artifact

import (
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/vm"
)

func diskCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// onlyBuildFile returns the single persisted build entry under dir.
func onlyBuildFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "builds", "*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one build file, got %v (err %v)", matches, err)
	}
	return matches[0]
}

// TestDiskPersistence proves builds and runs survive a process restart
// (modeled as a second Cache over the same directory) and that a restored
// artifact upgrades to a full compilation on BuildIR demand.
func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Mode: core.Unified}

	c1 := diskCache(t, dir)
	a1, err := c1.Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := run1(c1, a1, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh cache over the same store.
	c2 := diskCache(t, dir)
	a2, err := c2.Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.DiskBuildHits != 1 {
		t.Errorf("DiskBuildHits = %d, want 1", st.DiskBuildHits)
	}
	if a2.Comp != nil {
		t.Error("disk-restored artifact unexpectedly carries a Compilation")
	}
	if a2.Static != a1.Static {
		t.Errorf("restored static stats %+v != original %+v", a2.Static, a1.Static)
	}
	r2, err := run1(c2, a2, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.DiskRunHits != 1 {
		t.Errorf("DiskRunHits = %d, want 1", st.DiskRunHits)
	}
	if r2.Output != r1.Output || r2.Instructions != r1.Instructions || r2.CacheStats != r1.CacheStats {
		t.Errorf("restored run differs: %+v vs %+v", r2, r1)
	}

	// BuildIR upgrades the restored artifact exactly once.
	a3, err := c2.BuildIR(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Comp == nil {
		t.Fatal("BuildIR left Comp nil")
	}
	// The upgraded artifact replaces the entry for everyone.
	a4, err := c2.Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a4.Comp == nil {
		t.Error("upgrade was not published to subsequent Build calls")
	}
}

// TestDiskLoadsEntriesWithTraceField: run entries written while vm.Result
// still had a Trace field carry `"Trace":null`. They must load as hits
// under the unchanged unicache-artifact-run/v1 schema, not be salvaged.
func TestDiskLoadsEntriesWithTraceField(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Mode: core.Unified}
	c1 := diskCache(t, dir)
	a1, err := c1.Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := run1(c1, a1, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runs, err := filepath.Glob(filepath.Join(dir, "runs", "*.json"))
	if err != nil || len(runs) != 1 {
		t.Fatalf("want exactly one run file, got %v (err %v)", runs, err)
	}
	raw, err := os.ReadFile(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	// The older writer emitted Trace right after ICacheStats.
	old := strings.Replace(string(raw), `"ICacheStats":null}`, `"ICacheStats":null,"Trace":null}`, 1)
	if old == string(raw) {
		t.Fatalf("run entry has an unexpected layout: %s", raw)
	}
	if err := os.WriteFile(runs[0], []byte(old), 0o666); err != nil {
		t.Fatal(err)
	}

	c2 := diskCache(t, dir)
	a2, err := c2.Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := run1(c2, a2, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.DiskRunHits != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 1 disk run hit and nothing salvaged", st)
	}
	if r2.Output != r1.Output || r2.Instructions != r1.Instructions || r2.CacheStats != r1.CacheStats {
		t.Errorf("restored run differs: %+v vs %+v", r2, r1)
	}
}

// TestDiskCorruptionSalvaged: a damaged store entry is counted, warned
// about, and silently recomputed — then re-persisted so the next restart
// hits disk again.
func TestDiskCorruptionSalvaged(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Mode: core.Unified}

	c1 := diskCache(t, dir)
	if _, err := c1.Build(src, cfg); err != nil {
		t.Fatal(err)
	}
	path := onlyBuildFile(t, dir)
	if err := os.WriteFile(path, []byte(`{"schema":"unicache-artifact-build/v1","key":"not json`), 0o666); err != nil {
		t.Fatal(err)
	}

	var warns []string
	var mu sync.Mutex
	c2 := diskCache(t, dir)
	c2.SetWarnFunc(func(m string) { mu.Lock(); warns = append(warns, m); mu.Unlock() })
	a, err := c2.Build(src, cfg)
	if err != nil {
		t.Fatalf("corrupt entry was not salvaged: %v", err)
	}
	if a.Comp == nil {
		t.Error("salvaged build should be a full recompilation")
	}
	if st := c2.Stats(); st.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", st.Corrupt)
	}
	if len(warns) == 0 || !strings.Contains(warns[0], "corrupt") {
		t.Errorf("expected a corruption warning, got %q", warns)
	}

	// The recomputed entry was re-persisted: a third cache hits disk.
	c3 := diskCache(t, dir)
	if _, err := c3.Build(src, cfg); err != nil {
		t.Fatal(err)
	}
	if st := c3.Stats(); st.DiskBuildHits != 1 {
		t.Errorf("after salvage, DiskBuildHits = %d, want 1", st.DiskBuildHits)
	}
}

// TestDiskKeyMismatchSalvaged: an entry whose embedded key does not
// re-derive (e.g. a file copied under the wrong name) is corruption, not
// a hit.
func TestDiskKeyMismatchSalvaged(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Mode: core.Unified}
	c1 := diskCache(t, dir)
	if _, err := c1.Build(src, cfg); err != nil {
		t.Fatal(err)
	}
	path := onlyBuildFile(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf(src, cfg)
	tampered := strings.Replace(string(raw), hex.EncodeToString(k[:]), strings.Repeat("0", 64), 1)
	if tampered == string(raw) {
		t.Fatal("test setup: key not found in entry")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o666); err != nil {
		t.Fatal(err)
	}

	c2 := diskCache(t, dir)
	if _, err := c2.Build(src, cfg); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Corrupt != 1 || st.DiskBuildHits != 0 {
		t.Errorf("Corrupt=%d DiskBuildHits=%d, want 1 and 0", st.Corrupt, st.DiskBuildHits)
	}
}

// TestDiskPermissionFailsLoudly: unlike corruption, a permission error is
// surfaced, not swallowed as a miss. Provoked through the readFile seam —
// the suite runs as root, where real permission bits do not bite.
func TestDiskPermissionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Mode: core.Unified}
	c1 := diskCache(t, dir)
	if _, err := c1.Build(src, cfg); err != nil {
		t.Fatal(err)
	}

	orig := readFile
	readFile = func(string) ([]byte, error) { return nil, fs.ErrPermission }
	defer func() { readFile = orig }()

	c2 := diskCache(t, dir)
	_, err := c2.Build(src, cfg)
	if err == nil || !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("want loud permission error, got %v", err)
	}
	if st := c2.Stats(); st.Corrupt != 0 {
		t.Errorf("permission error must not count as corruption (Corrupt=%d)", st.Corrupt)
	}
}

// TestSingleFlightStress: N racing identical builds compile exactly once.
// Run under -race by the CI gate's focused pass.
func TestSingleFlightStress(t *testing.T) {
	c := New()
	cfg := core.Config{Mode: core.Unified}
	const n = 32
	var wg sync.WaitGroup
	var failures atomic.Int64
	arts := make([]*Artifact, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := c.Build(src, cfg)
			if err != nil {
				failures.Add(1)
				return
			}
			arts[i] = a
		}(i)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d builds failed", failures.Load())
	}
	st := c.Stats()
	if st.BuildMisses != 1 {
		t.Errorf("BuildMisses = %d, want exactly 1 compilation", st.BuildMisses)
	}
	if st.BuildHits != n-1 {
		t.Errorf("BuildHits = %d, want %d deduplicated requests", st.BuildHits, n-1)
	}
	for i := 1; i < n; i++ {
		if arts[i] != arts[0] {
			t.Fatalf("goroutine %d got a different artifact pointer", i)
		}
	}
}

// TestCancelErrorNeverCached: a deadline-canceled run must not poison the
// memo — the next identical request executes and succeeds.
func TestCancelErrorNeverCached(t *testing.T) {
	c := New()
	a, err := c.Build(src, core.Config{Mode: core.Unified})
	if err != nil {
		t.Fatal(err)
	}
	fired := make(chan struct{})
	close(fired)
	_, err = run1(c, a, vm.Config{Done: fired})
	var ce *vm.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CancelError, got %v", err)
	}
	res, err := run1(c, a, vm.Config{})
	if err != nil {
		t.Fatalf("canceled run poisoned the cache: %v", err)
	}
	if res.Output == "" {
		t.Error("no output from post-cancel run")
	}

	// The encoded and batched paths share the memo and the same rule.
	geom := cache.DefaultConfig()
	geom.Sets = 8
	if _, _, err := c.RunEncoded(a, vm.Config{Cache: geom, Done: fired}); !errors.As(err, &ce) {
		t.Fatalf("RunEncoded: want *CancelError, got %v", err)
	}
	if _, enc, err := c.RunEncoded(a, vm.Config{Cache: geom}); err != nil || enc == nil {
		t.Fatalf("canceled RunEncoded poisoned the cache: %v", err)
	}

	b, err := c.Build(src, core.Config{Mode: core.Conventional})
	if err != nil {
		t.Fatal(err)
	}
	geoms := []cache.Config{cache.ConventionalConfig(), cache.ConventionalConfig()}
	geoms[1].Sets = 16
	cfgs := func(done <-chan struct{}) []vm.Config {
		return []vm.Config{{Cache: geoms[0], Done: done}, {Cache: geoms[1], Done: done}}
	}
	if _, err := c.RunBatch(b, cfgs(fired)); !errors.As(err, &ce) {
		t.Fatalf("RunBatch: want *CancelError, got %v", err)
	}
	got, err := c.RunBatch(b, cfgs(nil))
	if err != nil {
		t.Fatalf("canceled RunBatch poisoned the cache: %v", err)
	}
	for i, r := range got {
		if r.Output != res.Output {
			t.Errorf("batch member %d output %q, want %q", i, r.Output, res.Output)
		}
	}
}

// TestRunBatchReadsStore: after a restart, RunBatch answers every config
// the store holds from disk instead of electing a lead to execute; only
// the config the store lacks executes, once.
func TestRunBatchReadsStore(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Mode: core.Unified}
	var cfgs []vm.Config
	for _, sets := range []int{8, 16, 32, 64} {
		geom := cache.DefaultConfig()
		geom.Sets = sets
		cfgs = append(cfgs, vm.Config{Cache: geom})
	}

	c1 := diskCache(t, dir)
	a1, err := c1.Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c1.RunBatch(a1, cfgs[:3])
	if err != nil {
		t.Fatal(err)
	}

	c2 := diskCache(t, dir)
	a2, err := c2.BuildIR(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.RunBatch(a2, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.DiskRunHits != 3 || st.RunMisses != 1 || st.BatchReplays != 0 {
		t.Errorf("restarted batch: %d disk hits, %d misses, %d replays; want 3, 1, 0",
			st.DiskRunHits, st.RunMisses, st.BatchReplays)
	}
	for i := range want {
		if got[i].CacheStats != want[i].CacheStats || got[i].Output != want[i].Output {
			t.Errorf("config %d: stored result differs from the original", i)
		}
	}
}
