package unicache

import (
	"strings"
	"testing"
)

const demoSrc = `
int histogram[16];
int total;

void record(int v) {
    histogram[v % 16] = histogram[v % 16] + 1;
    total = total + 1;
}

void main() {
    int i;
    for (i = 0; i < 200; i++) {
        record(i * 37);
    }
    print(total);
    print(histogram[0]);
}
`

func TestCompileAndRun(t *testing.T) {
	p, err := Compile(demoSrc, &CompileOptions{Check: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := p.Run(nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want, err := p.Interpret()
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	if res.Output != want {
		t.Errorf("simulator output %q != interpreter output %q", res.Output, want)
	}
	if !strings.HasPrefix(res.Output, "200\n") {
		t.Errorf("output = %q, want 200 first", res.Output)
	}
	if res.Instructions == 0 || res.Loads == 0 || res.Stores == 0 {
		t.Errorf("counters missing: %+v", res)
	}
}

func TestModesProduceSameOutput(t *testing.T) {
	for _, mode := range []Mode{Conventional, Unified} {
		for _, alloc := range []Allocator{Chaitin, UsageCount} {
			for _, stack := range []bool{false, true} {
				p, err := Compile(demoSrc, &CompileOptions{Mode: mode, Allocator: alloc, StackScalars: stack, Check: true})
				if err != nil {
					t.Fatalf("%v/%v/%v compile: %v", mode, alloc, stack, err)
				}
				res, err := p.Run(nil)
				if err != nil {
					t.Fatalf("%v/%v/%v run: %v", mode, alloc, stack, err)
				}
				if !strings.HasPrefix(res.Output, "200\n") {
					t.Errorf("%v/%v/%v: output %q", mode, alloc, stack, res.Output)
				}
			}
		}
	}
}

func TestStaticStats(t *testing.T) {
	p, err := Compile(demoSrc, &CompileOptions{Mode: Unified, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Static()
	if s.Sites != s.Loads+s.Stores {
		t.Errorf("sites %d != loads+stores %d", s.Sites, s.Loads+s.Stores)
	}
	if s.Sites != s.Bypass+s.Cached {
		t.Errorf("sites %d != bypass+cached %d", s.Sites, s.Bypass+s.Cached)
	}
	if s.PercentBypass < 0 || s.PercentBypass > 100 {
		t.Errorf("percent bypass %f out of range", s.PercentBypass)
	}
}

func TestAssemblyAndIRDumps(t *testing.T) {
	p, err := Compile(demoSrc, &CompileOptions{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	asm := p.Assembly()
	if !strings.Contains(asm, "main:") {
		t.Error("assembly missing main label")
	}
	if !strings.Contains(asm, "lw.") || !strings.Contains(asm, "sw.") {
		t.Error("assembly missing annotated memory ops")
	}
	if !strings.Contains(p.IR(), "func main") {
		t.Error("IR dump missing main")
	}
	if p.AliasReport() == "" {
		t.Error("empty alias report")
	}
}

func TestRunWithCustomCache(t *testing.T) {
	p, err := Compile(demoSrc, &CompileOptions{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(&RunOptions{Cache: CacheOptions{
		Sets: 4, Ways: 1, LineWords: 2, Policy: "fifo", DeadMarking: "demote",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Refs == 0 {
		t.Error("no cache references recorded")
	}
}

func TestReplayIncludingMIN(t *testing.T) {
	p, err := Compile(demoSrc, &CompileOptions{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(&RunOptions{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	lru, err := res.Replay(CacheOptions{Policy: "lru"}, true)
	if err != nil {
		t.Fatal(err)
	}
	min, err := res.Replay(CacheOptions{Policy: "min"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if min.Misses > lru.Misses {
		t.Errorf("MIN misses %d > LRU misses %d", min.Misses, lru.Misses)
	}
}

func TestReplayWithoutTraceFails(t *testing.T) {
	p, err := Compile(demoSrc, &CompileOptions{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Replay(CacheOptions{}, false); err == nil {
		t.Error("expected error replaying without a recorded trace")
	}
}

func TestCompareTraffic(t *testing.T) {
	cmp, err := CompareTraffic(demoSrc, &CompileOptions{StackScalars: true, Check: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.ReferenceReductionPct <= 0 {
		t.Errorf("reference reduction %.1f%%, want positive", cmp.ReferenceReductionPct)
	}
	if cmp.DynamicPercentBypass <= 0 {
		t.Errorf("dynamic bypass %.1f%%, want positive", cmp.DynamicPercentBypass)
	}
	if cmp.UnifiedRefsToCache >= cmp.ConventionalRefsToCache {
		t.Errorf("unified cache stream %d not smaller than conventional %d",
			cmp.UnifiedRefsToCache, cmp.ConventionalRefsToCache)
	}
}

// TestCompareTrafficMatchesPerModeCompiles: CompareTraffic compiles once
// and runs the unified program on conventional hardware; every field
// equals the measurement built from a compilation per mode, also when the
// run options ask for the hint bits to be honored.
func TestCompareTrafficMatchesPerModeCompiles(t *testing.T) {
	honor := true
	for _, ropts := range []*RunOptions{
		nil,
		{Cache: CacheOptions{Sets: 8, Ways: 4, Policy: "fifo", DeadMarking: "demote", HonorBypass: &honor}},
	} {
		copts := CompileOptions{StackScalars: true, Check: true}
		got, err := CompareTraffic(demoSrc, &copts, ropts)
		if err != nil {
			t.Fatal(err)
		}
		var runs [2]*RunResult
		var static float64
		for i, mode := range []Mode{Unified, Conventional} {
			copts.Mode = mode
			p, err := Compile(demoSrc, &copts)
			if err != nil {
				t.Fatal(err)
			}
			if runs[i], err = p.Run(ropts); err != nil {
				t.Fatal(err)
			}
			if mode == Unified {
				static = p.Static().PercentBypass
			}
		}
		ur, cr := runs[0], runs[1]
		want := Comparison{
			Output:                  cr.Output,
			StaticPercentBypass:     static,
			DynamicPercentBypass:    ur.Cache.PercentBypass,
			ConventionalRefsToCache: cr.Cache.CachedRefs,
			UnifiedRefsToCache:      ur.Cache.CachedRefs,
			ReferenceReductionPct:   100 * float64(cr.Cache.CachedRefs-ur.Cache.CachedRefs) / float64(cr.Cache.CachedRefs),
			ConventionalDRAMWords:   cr.Cache.MemTrafficWords,
			UnifiedDRAMWords:        ur.Cache.MemTrafficWords,
		}
		if *got != want {
			t.Errorf("ropts %+v:\n got %+v\nwant %+v", ropts, *got, want)
		}
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := Compile("void main( {", nil); err == nil {
		t.Error("expected parse error")
	}
	p, err := Compile(demoSrc, &CompileOptions{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(&RunOptions{Cache: CacheOptions{Policy: "plru"}}); err == nil {
		t.Error("expected unknown-policy error")
	}
	if _, err := p.Run(&RunOptions{Cache: CacheOptions{DeadMarking: "sometimes"}}); err == nil {
		t.Error("expected unknown-deadmarking error")
	}
}

func TestBenchmarkRegistry(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 6 {
		t.Fatalf("benchmarks = %d, want 6", len(bs))
	}
	b, err := Benchmark("sieve")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(b.Source, &CompileOptions{Check: true})
	if err != nil {
		t.Fatalf("compile sieve: %v", err)
	}
	res, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != b.Expected {
		t.Errorf("sieve output %q, want %q", res.Output, b.Expected)
	}
	if _, err := Benchmark("nope"); err == nil {
		t.Error("expected unknown-benchmark error")
	}
}

func TestSaveAndRunAssembly(t *testing.T) {
	p, err := Compile(demoSrc, &CompileOptions{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	asmText := p.SaveAssembly()
	if !strings.Contains(asmText, ".globals") {
		t.Error("saved assembly missing data directives")
	}
	got, err := RunAssembly(asmText, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Output != want.Output {
		t.Errorf("assembled output %q != original %q", got.Output, want.Output)
	}
	if got.Instructions != want.Instructions {
		t.Errorf("instruction counts differ: %d vs %d", got.Instructions, want.Instructions)
	}
	if _, err := RunAssembly("not assembly at all", nil); err == nil {
		t.Error("expected assemble error")
	}
}

func TestOptimizeAndPromoteOptions(t *testing.T) {
	for _, o := range []CompileOptions{
		{Optimize: true, Check: true},
		{PromoteGlobals: true, Check: true},
		{Optimize: true, PromoteGlobals: true, StackScalars: true, Check: true},
	} {
		o := o
		p, err := Compile(demoSrc, &o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		res, err := p.Run(nil)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if !strings.HasPrefix(res.Output, "200\n") {
			t.Errorf("%+v: output %q", o, res.Output)
		}
	}
}

func TestICacheOption(t *testing.T) {
	p, err := Compile(demoSrc, &CompileOptions{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(&RunOptions{ICache: &CacheOptions{Sets: 16, Ways: 2, LineWords: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ICache == nil {
		t.Fatal("no icache stats")
	}
	if res.ICache.Refs != res.Instructions {
		t.Errorf("icache refs %d != instructions %d", res.ICache.Refs, res.Instructions)
	}
	// RunAssembly honors the same option.
	ares, err := RunAssembly(p.SaveAssembly(), &RunOptions{ICache: &CacheOptions{Sets: 16, Ways: 2, LineWords: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if ares.ICache == nil {
		t.Fatal("RunAssembly dropped the icache option")
	}
	if ares.ICache.Refs != ares.Instructions || *ares.ICache != *res.ICache {
		t.Errorf("RunAssembly icache stats %+v, want %+v", *ares.ICache, *res.ICache)
	}
}
