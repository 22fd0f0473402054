package artifact

import (
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
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
