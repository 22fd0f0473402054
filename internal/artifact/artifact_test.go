package artifact

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/replay"
	"repro/internal/vm"
)

const src = `
int g;
void main() {
    int i;
    for (i = 0; i < 10; i++) g = g + i;
    print(g);
}
`

// run1 is RunBatch of one configuration.
func run1(c *Cache, art *Artifact, cfg vm.Config) (*vm.Result, error) {
	res, err := c.RunBatch(art, []vm.Config{cfg})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

func TestKeyOfDiscriminatesConfigs(t *testing.T) {
	base := core.Config{Mode: core.Unified}
	same := KeyOf(src, base)
	if same != KeyOf(src, base) {
		t.Fatal("same inputs hash differently")
	}
	variants := []core.Config{
		{Mode: core.Conventional},
		{Mode: core.Unified, StackScalars: true},
		{Mode: core.Unified, Optimize: true},
		{Mode: core.Unified, Inline: true},
		{Mode: core.Unified, PromoteGlobals: true},
		{Mode: core.Unified, Check: true},
	}
	for i, v := range variants {
		if KeyOf(src, v) == same {
			t.Errorf("variant %d: key collides with base config", i)
		}
	}
	if KeyOf(src+" ", base) == same {
		t.Error("source change did not change the key")
	}
}

func TestKeyOfNormalizesDefaultTarget(t *testing.T) {
	implicit := core.Config{Mode: core.Unified}
	explicit := implicit
	explicit.Target = core.DefaultTarget
	if KeyOf(src, implicit) != KeyOf(src, explicit) {
		t.Error("zero-value Target and explicit DefaultTarget hash differently")
	}
}

func TestBuildCachesArtifacts(t *testing.T) {
	c := New()
	cfg := core.Config{Mode: core.Unified, Check: true}
	a1, err := c.Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("second Build returned a different artifact")
	}
	st := c.Stats()
	if st.BuildMisses != 1 || st.BuildHits != 1 {
		t.Errorf("build stats = %+v, want 1 miss, 1 hit", st)
	}
}

func TestBuildCachesErrors(t *testing.T) {
	c := New()
	if _, err := c.Build("void main( {", core.Config{}); err == nil {
		t.Fatal("bad source compiled")
	}
	if _, err := c.Build("void main( {", core.Config{}); err == nil {
		t.Fatal("cached bad source compiled")
	}
}

func TestRunDistinguishesConfigs(t *testing.T) {
	c := New()
	art, err := c.Build(src, core.Config{Mode: core.Unified, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	a := cache.DefaultConfig()
	b := a
	b.Sets = 8
	ra, err := run1(c, art, vm.Config{Cache: a})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := run1(c, art, vm.Config{Cache: b})
	if err != nil {
		t.Fatal(err)
	}
	if ra == rb {
		t.Error("different cache geometries shared a result")
	}
}

// TestConcurrentBuildAndRun exercises the cache from many goroutines; the
// -race CI run proves the locking discipline.
func TestConcurrentBuildAndRun(t *testing.T) {
	c := New()
	cfg := core.Config{Mode: core.Unified, Check: true}
	var wg sync.WaitGroup
	arts := make([]*Artifact, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			art, err := c.Build(src, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			arts[i] = art
			if _, err := run1(c, art, vm.Config{Cache: cache.DefaultConfig()}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(arts); i++ {
		if arts[i] != arts[0] {
			t.Fatalf("goroutine %d got a distinct artifact for the same key", i)
		}
	}
	if st := c.Stats(); st.BuildMisses != 1 {
		t.Errorf("build misses = %d, want 1 (single compile for 16 concurrent requests)", st.BuildMisses)
	}
}

// TestRunEncodedSharesRunMemo pins the memo contract between RunBatch
// and RunEncoded: they share one run entry per configuration, a result
// memoized while its identity holds no trace is executed once more for an
// encoded request, and from then on both hit. The returned trace replays
// to the result's own cache statistics.
func TestRunEncodedSharesRunMemo(t *testing.T) {
	c := New()
	art, err := c.Build(src, core.Config{Mode: core.Unified})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.Config{Cache: cache.DefaultConfig()}
	want := func(step string, hits, misses int64) {
		t.Helper()
		if st := c.Stats(); st.RunHits != hits || st.RunMisses != misses {
			t.Fatalf("after %s: RunHits=%d RunMisses=%d, want %d and %d",
				step, st.RunHits, st.RunMisses, hits, misses)
		}
	}

	res, err := run1(c, art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want("RunBatch", 0, 1)
	eres, enc, err := c.RunEncoded(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if enc == nil {
		t.Fatal("RunEncoded returned no trace")
	}
	want("RunEncoded after RunBatch (no trace held)", 0, 2)
	if eres.Output != res.Output || eres.CacheStats != res.CacheStats {
		t.Errorf("encoded run differs from plain run:\nencoded: %+v\nplain:   %+v", eres, res)
	}

	if _, err := run1(c, art, cfg); err != nil {
		t.Fatal(err)
	}
	want("second RunBatch", 1, 2)
	hres, henc, err := c.RunEncoded(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want("second RunEncoded", 2, 2)
	if henc != enc || hres != eres {
		t.Error("second RunEncoded did not return the memoized result and trace")
	}

	st, err := replay.Replay(enc, cfg.Cache, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st != eres.CacheStats {
		t.Errorf("replayed trace = %+v, want the run's %+v", st, eres.CacheStats)
	}
}

// TestRunKeyFormatPinned: the persistent store names run files by a hash
// of runKey, so its spelling is part of the on-disk format. A store
// written by an older daemon keeps hitting only while these strings stay
// exactly as they are.
func TestRunKeyFormatPinned(t *testing.T) {
	k := KeyOf(src, core.Config{Mode: core.Unified, Optimize: true})
	ic := cache.ConventionalConfig()
	ic.Sets, ic.LineWords = 16, 4
	cfg := vm.Config{MemWords: 1 << 16, MaxSteps: 5000,
		Cache: cache.Config{Sets: 8, Ways: 4, LineWords: 2, Policy: cache.FIFO, Dead: cache.DeadDemote,
			HonorBypass: true, Seed: 7, ECC: cache.ECCParity, ECCRetry: true},
		ICache: &ic}
	for _, tc := range []struct {
		cfg  vm.Config
		want string
	}{
		{cfg, "f84d1b0480733c6f|mw65536|ms5000|s8.w4.l2.fifo.demote.btrue.seed7.eccparity.retrytrue" +
			"|i:s16.w2.l4.lru.off.bfalse.seed1.eccoff.retryfalse"},
		{vm.Config{Cache: cache.DefaultConfig()},
			"f84d1b0480733c6f|mw0|ms0|s32.w2.l1.lru.invalidate.btrue.seed1.eccoff.retryfalse"},
	} {
		if got := runKey(k, tc.cfg); got != tc.want {
			t.Errorf("runKey = %q\nwant     %q", got, tc.want)
		}
	}
}

// measureCfgs is a spread of geometries, policies and management variants
// of one execution identity.
func measureCfgs() []vm.Config {
	var cfgs []vm.Config
	for _, geom := range []struct{ sets, ways, line int }{{8, 1, 1}, {16, 2, 1}, {4, 4, 2}} {
		for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random} {
			for _, dead := range []cache.DeadMode{cache.DeadOff, cache.DeadInvalidate, cache.DeadDemote} {
				cfgs = append(cfgs, vm.Config{Cache: cache.Config{Sets: geom.sets, Ways: geom.ways,
					LineWords: geom.line, Policy: pol, Dead: dead, HonorBypass: dead != cache.DeadOff, Seed: 3}})
			}
		}
	}
	return cfgs
}

// TestMeasureThenRunMatchesFresh: a configuration first answered by
// MeasureBatch and then by RunBatch (a memo hit, no VM run and no replay)
// returns the same result as a fresh cache's RunBatch, and the measured
// statistics are the run's own.
func TestMeasureThenRunMatchesFresh(t *testing.T) {
	cfgs := measureCfgs()
	c := New()
	art, err := c.Build(src, core.Config{Mode: core.Unified})
	if err != nil {
		t.Fatal(err)
	}
	tss, err := c.MeasureBatch(art, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if before.Measures != int64(len(cfgs)) || before.RunMisses != 1 {
		t.Fatalf("after MeasureBatch: %d measures, %d run misses; want %d and 1 (the traced lead)",
			before.Measures, before.RunMisses, len(cfgs))
	}
	got, err := c.RunBatch(art, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.RunMisses != before.RunMisses || after.RunHits-before.RunHits != int64(len(cfgs)) {
		t.Errorf("RunBatch after MeasureBatch: %d misses, %d hits; want 0 and %d",
			after.RunMisses-before.RunMisses, after.RunHits-before.RunHits, len(cfgs))
	}

	fresh := New()
	fart, err := fresh.Build(src, core.Config{Mode: core.Unified})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RunBatch(fart, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("config %d: measured then run %+v, fresh %+v", i, got[i], want[i])
		}
		if tss[i].Stats != want[i].CacheStats {
			t.Errorf("config %d: measured stats %+v, run's %+v", i, tss[i].Stats, want[i].CacheStats)
		}
	}
}

// TestLoneMissReplaysHeldTrace: once an identity holds a trace, a
// RunBatch with a single miss replays it instead of running the VM, and
// the replayed result equals a direct VM run.
func TestLoneMissReplaysHeldTrace(t *testing.T) {
	c := New()
	art, err := c.Build(src, core.Config{Mode: core.Unified})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RunEncoded(art, vm.Config{Cache: cache.DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	geom := cache.DefaultConfig()
	geom.Sets, geom.Policy = 4, cache.FIFO
	before := c.Stats()
	got, err := run1(c, art, vm.Config{Cache: geom})
	if err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if misses, replays := after.RunMisses-before.RunMisses, after.BatchReplays-before.BatchReplays; misses != 1 || replays != 1 {
		t.Errorf("lone miss: %d misses, %d replays; want 1 and 1 (no VM run)", misses, replays)
	}
	want, err := vm.Run(art.Prog, vm.Config{Cache: geom}.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed lone miss %+v, VM run %+v", got, want)
	}
}

// TestMeasureBatchMIN: MeasureBatch measures MIN (only replay can run
// it), seeds the trace with an LRU lead when MIN comes first, and
// installs no run entry for MIN.
func TestMeasureBatchMIN(t *testing.T) {
	c := New()
	art, err := c.Build(src, core.Config{Mode: core.Unified})
	if err != nil {
		t.Fatal(err)
	}
	minCfg := vm.Config{Cache: cache.DefaultConfig()}
	minCfg.Cache.Policy = cache.MIN
	lruCfg := vm.Config{Cache: cache.DefaultConfig()}
	tss, err := c.MeasureBatch(art, []vm.Config{minCfg, lruCfg})
	if err != nil {
		t.Fatal(err)
	}
	if tss[0].Misses > tss[1].Misses {
		t.Errorf("MIN missed %d times, LRU %d", tss[0].Misses, tss[1].Misses)
	}
	if c.runKnown(runKey(art.Key, minCfg.Normalized())) {
		t.Error("MeasureBatch installed a run entry for MIN")
	}
	if !c.runKnown(runKey(art.Key, lruCfg.Normalized())) {
		t.Error("MeasureBatch installed no run entry for LRU")
	}
	if st := c.Stats(); st.RunMisses != 1 || st.Measures != 2 {
		t.Errorf("%d run misses, %d measures; want 1 (the LRU lead) and 2", st.RunMisses, st.Measures)
	}
}

// TestMeasureBatchRejectsUnreplayable: configurations whose statistics a
// replay cannot reproduce are an error, and nothing runs.
func TestMeasureBatchRejectsUnreplayable(t *testing.T) {
	c := New()
	art, err := c.Build(src, core.Config{Mode: core.Unified})
	if err != nil {
		t.Fatal(err)
	}
	icache := cache.ConventionalConfig()
	for name, mod := range map[string]func(*vm.Config){
		"fault injector":    func(cfg *vm.Config) { cfg.Cache.Injector = faults.New(faults.Plan{}) },
		"instruction cache": func(cfg *vm.Config) { cfg.ICache = &icache },
		"ECC":               func(cfg *vm.Config) { cfg.Cache.ECC = cache.ECCParity },
		"trace sink":        func(cfg *vm.Config) { cfg.TraceSink = replay.NewEncoder() },
	} {
		cfg := vm.Config{Cache: cache.DefaultConfig()}
		mod(&cfg)
		if _, err := c.MeasureBatch(art, []vm.Config{{Cache: cache.DefaultConfig()}, cfg}); err == nil {
			t.Errorf("%s: MeasureBatch accepted the configuration", name)
		}
	}
	if st := c.Stats(); st.RunMisses != 0 || st.Measures != 0 {
		t.Errorf("rejected batches ran: %+v", st)
	}
}

// TestConcurrentHeldTrace races traced leads, replays and measures of
// one execution identity from several goroutines (the -race CI run
// checks the held-trace map) and requires every answer to equal a serial
// cache's.
func TestConcurrentHeldTrace(t *testing.T) {
	cfgs := measureCfgs()
	ref := New()
	rart, err := ref.Build(src, core.Config{Mode: core.Unified})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunBatch(rart, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	art, err := c.Build(src, core.Config{Mode: core.Unified})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo, hi := 3*g%len(cfgs), 3*g%len(cfgs)+3
			got, err := c.RunBatch(art, cfgs[lo:hi])
			if err != nil {
				t.Error(err)
				return
			}
			tss, err := c.MeasureBatch(art, cfgs[lo:hi])
			if err != nil {
				t.Error(err)
				return
			}
			for k := range got {
				if !reflect.DeepEqual(got[k], want[lo+k]) || tss[k].Stats != want[lo+k].CacheStats {
					t.Errorf("config %d: concurrent answer differs from the serial one", lo+k)
				}
			}
		}(g)
	}
	wg.Wait()
}
