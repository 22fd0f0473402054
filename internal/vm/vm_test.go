package vm

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/irinterp"
	"repro/internal/isa"
	"repro/internal/regalloc"
)

// runBoth compiles src under cfg, runs the UM program on the VM with the
// given cache config, and the IR on the reference interpreter; both outputs
// must match.
func runBoth(t *testing.T, src string, ccfg core.Config, mcfg cache.Config) *Result {
	t.Helper()
	comp, err := core.Compile(src, ccfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want, err := irinterp.Run(comp.Prog, irinterp.Config{})
	if err != nil {
		t.Fatalf("irinterp: %v", err)
	}
	prog, err := codegen.Generate(comp)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	res, err := Run(prog, Config{Cache: mcfg})
	if err != nil {
		t.Fatalf("vm: %v\nlisting:\n%s", err, prog.Listing())
	}
	if res.Output != want.Output {
		t.Fatalf("vm output %q != irinterp output %q\nlisting:\n%s",
			res.Output, want.Output, prog.Listing())
	}
	return res
}

var tiny = regalloc.Target{CallerSaved: []int{8, 9}, CalleeSaved: []int{16, 17}}

// matrix of programs exercising calls, recursion, arrays, pointers, spills.
var programs = []string{
	`void main() { print(42); printchar(65); printchar(10); }`,
	`
int add3(int a, int b, int c) { return a + b + c; }
void main() { print(add3(1, 2, 3)); }`,
	`
int six(int a, int b, int c, int d, int e, int f) {
    return a + 10 * b + 100 * c + 1000 * d + 10000 * e + 100000 * f;
}
void main() { print(six(1, 2, 3, 4, 5, 6)); }`,
	`
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
void main() { print(fib(16)); }`,
	`
int a[64];
void main() {
    int i;
    int s;
    for (i = 0; i < 64; i++) a[i] = i * 7 % 13;
    s = 0;
    for (i = 0; i < 64; i++) s += a[i];
    print(s);
}`,
	`
int m[8][8];
void main() {
    int i; int j; int s;
    for (i = 0; i < 8; i++)
        for (j = 0; j < 8; j++)
            m[i][j] = i * 8 + j;
    s = 0;
    for (i = 0; i < 8; i++) s += m[i][i];
    print(s);
}`,
	`
int g;
void bump(int *p, int by) { *p = *p + by; }
void main() {
    int local;
    local = 5;
    bump(&g, 3);
    bump(&local, 4);
    print(g);
    print(local);
}`,
	`
void main() {
    int a; int b; int cc; int d; int e; int f2; int g2; int h2; int i2; int j2;
    a=1; b=2; cc=3; d=4; e=5; f2=6; g2=7; h2=8; i2=9; j2=10;
    print(a+b+cc+d+e+f2+g2+h2+i2+j2);
    print(a*b + cc*d + e*f2 + g2*h2 + i2*j2);
    print((a-b)*(cc-d)*(e-f2)*(g2-h2)*(i2-j2));
}`,
	`
int sum(int *v, int n) {
    int s; int i;
    s = 0;
    for (i = 0; i < n; i++) s += v[i];
    return s;
}
int data[10];
void main() {
    int i;
    for (i = 0; i < 10; i++) data[i] = i;
    print(sum(data, 10));
    print(sum(data, 5));
}`,
	`
void main() {
    int i;
    int s;
    s = 0;
    for (i = 0; i < 50; i++) {
        if (i % 3 == 0) continue;
        if (i > 40) break;
        s += i;
    }
    print(s);
}`,
}

func TestVMMatchesInterpreterUnified(t *testing.T) {
	for i, src := range programs {
		res := runBoth(t, src, core.Config{Mode: core.Unified}, cache.DefaultConfig())
		if res.Instructions == 0 {
			t.Errorf("program %d: zero instructions", i)
		}
	}
}

func TestVMMatchesInterpreterConventional(t *testing.T) {
	for _, src := range programs {
		runBoth(t, src, core.Config{Mode: core.Conventional}, cache.ConventionalConfig())
	}
}

func TestVMMatchesInterpreterSpilled(t *testing.T) {
	for _, src := range programs {
		runBoth(t, src, core.Config{Mode: core.Unified, Target: tiny}, cache.DefaultConfig())
		runBoth(t, src, core.Config{Mode: core.Conventional, Target: tiny}, cache.ConventionalConfig())
	}
}

func TestVMAcrossCacheGeometries(t *testing.T) {
	src := programs[4] // array workload
	geoms := []cache.Config{
		{Sets: 1, Ways: 1, LineWords: 1, Policy: cache.LRU, Dead: cache.DeadInvalidate, HonorBypass: true, Seed: 1},
		{Sets: 4, Ways: 1, LineWords: 1, Policy: cache.FIFO, Dead: cache.DeadDemote, HonorBypass: true, Seed: 1},
		{Sets: 8, Ways: 4, LineWords: 4, Policy: cache.Random, Dead: cache.DeadInvalidate, HonorBypass: true, Seed: 7},
		{Sets: 16, Ways: 2, LineWords: 2, Policy: cache.LRU, Dead: cache.DeadOff, HonorBypass: false, Seed: 1},
	}
	for _, mode := range []core.Mode{core.Unified, core.Conventional} {
		for gi, gcfg := range geoms {
			res := runBoth(t, src, core.Config{Mode: mode, Target: tiny}, gcfg)
			if res.CacheStats.Refs != res.Loads+res.Stores {
				t.Errorf("geom %d: cache refs %d != loads+stores %d",
					gi, res.CacheStats.Refs, res.Loads+res.Stores)
			}
		}
	}
}

func TestUnifiedReducesTraffic(t *testing.T) {
	// The headline effect: on a register-friendly workload with spills and
	// frame traffic, unified management moves fewer words between cache
	// and memory than conventional management of the same program.
	src := `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
void main() { print(fib(17)); }`

	conv, err := core.Compile(src, core.Config{Mode: core.Conventional})
	if err != nil {
		t.Fatal(err)
	}
	unif, err := core.Compile(src, core.Config{Mode: core.Unified})
	if err != nil {
		t.Fatal(err)
	}
	convProg, err := codegen.Generate(conv)
	if err != nil {
		t.Fatal(err)
	}
	unifProg, err := codegen.Generate(unif)
	if err != nil {
		t.Fatal(err)
	}
	// A small cache so the recursion's frame traffic exceeds capacity.
	small := cache.Config{Sets: 8, Ways: 2, LineWords: 1, Policy: cache.LRU,
		Dead: cache.DeadInvalidate, HonorBypass: true, Seed: 1}
	smallConv := small
	smallConv.Dead = cache.DeadOff
	smallConv.HonorBypass = false
	convRes, err := Run(convProg, Config{Cache: smallConv})
	if err != nil {
		t.Fatal(err)
	}
	unifRes, err := Run(unifProg, Config{Cache: small})
	if err != nil {
		t.Fatal(err)
	}
	if convRes.Output != unifRes.Output {
		t.Fatalf("outputs differ: %q vs %q", convRes.Output, unifRes.Output)
	}
	convT := convRes.CacheStats.MemTrafficWords(1)
	unifT := unifRes.CacheStats.MemTrafficWords(1)
	if unifT >= convT {
		t.Errorf("unified traffic %d >= conventional %d", unifT, convT)
	}
}

func TestStepLimit(t *testing.T) {
	src := `void main() { while (1) {} }`
	comp, err := core.Compile(src, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Generate(comp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(prog, Config{MaxSteps: 10000}); err == nil {
		t.Error("expected step-limit error")
	}
}

func TestDynamicBypassPercent(t *testing.T) {
	comp, err := core.Compile(`
int u;
void main() {
    int i;
    for (i = 0; i < 10; i++) u = u + i;
    print(u);
}`, core.Config{Mode: core.Unified})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Generate(comp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, Config{Cache: cache.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	// u is unaliased: every data reference here is a bypass reference.
	if got := res.DynamicBypassPercent(); got != 100 {
		t.Errorf("dynamic bypass = %f%%, want 100%%", got)
	}
}

// A compiled program saved to assembly text and re-assembled must behave
// identically on the simulator.
func TestAssembleRoundTripExecution(t *testing.T) {
	srcs := []string{programs[3], programs[4], programs[6]}
	for i, src := range srcs {
		comp, err := core.Compile(src, core.Config{Mode: core.Unified})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := codegen.Generate(comp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(prog, Config{Cache: cache.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		reprog, err := isa.Assemble(prog.Save())
		if err != nil {
			t.Fatalf("case %d: assemble: %v", i, err)
		}
		got, err := Run(reprog, Config{Cache: cache.DefaultConfig()})
		if err != nil {
			t.Fatalf("case %d: run assembled: %v", i, err)
		}
		if got.Output != want.Output {
			t.Errorf("case %d: assembled output %q != original %q", i, got.Output, want.Output)
		}
		if got.Instructions != want.Instructions {
			t.Errorf("case %d: instruction counts differ: %d vs %d",
				i, got.Instructions, want.Instructions)
		}
		cs, ws := got.CacheStats, want.CacheStats
		if cs != ws {
			t.Errorf("case %d: cache stats differ:\n%+v\n%+v", i, cs, ws)
		}
	}
}

func TestInstructionCacheModel(t *testing.T) {
	comp, err := core.Compile(programs[3], core.Config{Mode: core.Unified}) // fib
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Generate(comp)
	if err != nil {
		t.Fatal(err)
	}
	icfg := cache.Config{Sets: 16, Ways: 2, LineWords: 4, Policy: cache.LRU,
		Dead: cache.DeadOff, HonorBypass: false, Seed: 1}
	res, err := Run(prog, Config{Cache: cache.DefaultConfig(), ICache: &icfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.ICacheStats == nil {
		t.Fatal("no icache stats")
	}
	ist := *res.ICacheStats
	if ist.Refs != res.Instructions {
		t.Errorf("icache refs %d != instructions %d", ist.Refs, res.Instructions)
	}
	// fib's code is tiny and loops heavily: the I-cache must hit nearly
	// always once warm.
	if ratio := float64(ist.Hits) / float64(ist.Refs); ratio < 0.99 {
		t.Errorf("icache hit ratio %.4f, want > 0.99 for a hot loop", ratio)
	}
	// Without the ICache option, no stats appear.
	res2, err := Run(prog, Config{Cache: cache.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ICacheStats != nil {
		t.Error("icache stats present without ICache config")
	}
}
