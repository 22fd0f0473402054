package artifact

import (
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
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
	ra, err := c.Run(art, vm.Config{Cache: a})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := c.Run(art, vm.Config{Cache: b})
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
			if _, err := c.Run(art, vm.Config{Cache: cache.DefaultConfig()}); err != nil {
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

// TestRunEncodedSharesRunMemo pins the memo contract between Run and
// RunEncoded: they share one run entry per configuration, a result
// memoized without its trace is executed once more for an encoded
// request, and from then on both hit. The returned trace replays to the
// result's own cache statistics.
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

	res, err := c.Run(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want("Run", 0, 1)
	eres, enc, err := c.RunEncoded(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if enc == nil {
		t.Fatal("RunEncoded returned no trace")
	}
	want("RunEncoded after Run (memo holds no trace)", 0, 2)
	if eres.Output != res.Output || eres.CacheStats != res.CacheStats {
		t.Errorf("encoded run differs from plain run:\nencoded: %+v\nplain:   %+v", eres, res)
	}

	if _, err := c.Run(art, cfg); err != nil {
		t.Fatal(err)
	}
	want("second Run", 1, 2)
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
