package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// faultPort is the fault port Memory and refMemory both offer.
type faultPort interface {
	InvalidateClean(pick uint64) bool
	FlipBit(pick uint64, word int, bit uint) (int64, bool)
}

// testInjector is a seeded fault injector for the differentials. Each
// rate is one fault in N opportunities (0: never); a way is stuck with
// probability stuck/8, decided by a stateless hash of (seed, set, way)
// like faults.Injector.WayStuck, so Memory may read it once at
// construction while refMemory asks on every victim scan.
type testInjector struct {
	seed, rng             uint64
	kill, wb, inval, flip int
	stuck                 uint64
}

func newTestInjector(seed uint64, kill, wb, inval, flip int, stuck uint64) *testInjector {
	return &testInjector{seed: seed, rng: seed | 1, kill: kill, wb: wb, inval: inval, flip: flip, stuck: stuck}
}

func (in *testInjector) next() uint64 {
	x := in.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	in.rng = x
	return x * 0x2545F4914F6CDD1D
}

func (in *testInjector) roll(n int) bool { return n > 0 && in.next()%uint64(n) == 0 }

func (in *testInjector) fire(p faultPort) {
	if in.roll(in.inval) {
		p.InvalidateClean(in.next())
	}
	if in.roll(in.flip) {
		pick, word, bit := in.next(), in.next(), in.next()
		p.FlipBit(pick, int(word%64), uint(bit%64))
	}
}

func (in *testInjector) DropDeadMark(int64) bool  { return in.roll(in.kill) }
func (in *testInjector) DropWriteback(int64) bool { return in.roll(in.wb) }

func (in *testInjector) WayStuck(set, way int) bool {
	h := (in.seed ^ uint64(set)*0x9E3779B97F4A7C15 ^ uint64(way)*0xBF58476D1CE4E5B9) * 0x94D049BB133111EB
	return (h^h>>29)%8 < in.stuck
}

// memInjector and refInjectorOf attach a testInjector to Memory and to
// refMemory respectively.
type memInjector struct{ *testInjector }

func (in memInjector) BeforeRef(m *Memory, _ int64, _ bool) { in.fire(m) }

type refInjectorOf struct{ *testInjector }

func (in refInjectorOf) BeforeRef(m *refMemory, _ int64, _ bool) { in.fire(m) }

// diffPair is a Memory and its reference model built from one config,
// each with its own copy of the same injector (or none).
type diffPair struct {
	m   *Memory
	ref *refMemory
}

func newDiffPair(t *testing.T, words int, cfg Config, inj func() *testInjector) diffPair {
	t.Helper()
	var ri refInjector
	if inj != nil {
		cfg.Injector = memInjector{inj()}
		ri = refInjectorOf{inj()}
	}
	m, err := NewMemory(words, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Injector = nil
	ref, err := newRefMemory(words, cfg, ri)
	if err != nil {
		t.Fatal(err)
	}
	return diffPair{m, ref}
}

// do performs one reference on both models and returns Memory's loaded
// value (0 for a store). It fails on any difference in the loaded value
// or the sticky fault.
func (p diffPair) do(t *testing.T, addr, val int64, store, bypass, last bool) int64 {
	t.Helper()
	var got int64
	if store {
		p.m.Store(addr, val, bypass, last)
		p.ref.Store(addr, val, bypass, last)
	} else {
		got = p.m.Load(addr, bypass, last)
		if want := p.ref.Load(addr, bypass, last); got != want {
			t.Fatalf("load[%d] = %d, reference %d", addr, got, want)
		}
	}
	if got, want := p.m.FaultErr(), p.ref.FaultErr(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after ref to %d: FaultErr = %v, reference %v", addr, got, want)
	}
	return got
}

// check fails unless both models have equal Stats, FaultStats and
// FaultErr, and, after FlushAll, equal backing memory.
func (p diffPair) check(t *testing.T, words int) {
	t.Helper()
	if got, want := p.m.Stats(), p.ref.Stats(); got != want {
		t.Fatalf("Stats:\nMemory    %+v\nreference %+v", got, want)
	}
	if got, want := p.m.FaultStats(), p.ref.FaultStats(); got != want {
		t.Fatalf("FaultStats:\nMemory    %+v\nreference %+v", got, want)
	}
	if got, want := p.m.FaultErr(), p.ref.FaultErr(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FaultErr = %v, reference %v", got, want)
	}
	p.m.FlushAll()
	p.ref.FlushAll()
	for a := int64(0); a < int64(words); a++ {
		if got, want := p.m.mem.Load(a), p.ref.mem.Load(a); got != want {
			t.Fatalf("after FlushAll: mem[%d] = %d, reference %d", a, got, want)
		}
	}
}

// TestMemoryMatchesReferenceModel drives Memory and the per-line
// reference model with one seeded random stream per configuration:
// every policy Memory runs, every dead mode, bypass honored or not, line
// sizes 1, 2 and 4, every ECC mode, each without an injector and with
// one that drops kills and writebacks, invalidates clean lines, flips
// bits and sticks ways. The last bit is set at random, so dead marking
// discards live data; both models must still agree on every loaded
// value, counter, fault and memory word.
func TestMemoryMatchesReferenceModel(t *testing.T) {
	const words, refs = 512, 2000
	geoms := [][2]int{{4, 2}, {2, 4}, {8, 1}, {1, 8}, {4, 3}}
	n := 0
	for _, pol := range []Policy{LRU, FIFO, Random} {
		for _, dead := range []DeadMode{DeadOff, DeadInvalidate, DeadDemote} {
			for _, honor := range []bool{false, true} {
				for _, lw := range []int{1, 2, 4} {
					for _, ecc := range []ECCMode{ECCOff, ECCParity, ECCSECDED} {
						for _, faulty := range []bool{false, true} {
							n++
							seed := uint64(n)
							g := geoms[n%len(geoms)]
							cfg := Config{Sets: g[0], Ways: g[1], LineWords: lw, Policy: pol,
								Dead: dead, HonorBypass: honor, Seed: seed, ECC: ecc, ECCRetry: n%4 >= 2}
							var inj func() *testInjector
							if faulty {
								inj = func() *testInjector { return newTestInjector(seed, 5, 7, 40, 60, 3) }
							}
							t.Run(fmt.Sprintf("%d/%s/%s/b%v/l%d/%s/inj%v", n, pol, dead, honor, lw, ecc, faulty), func(t *testing.T) {
								p := newDiffPair(t, words, cfg, inj)
								rng := rand.New(rand.NewSource(int64(seed)))
								for i := 0; i < refs; i++ {
									p.do(t, rng.Int63n(words), rng.Int63(), rng.Intn(2) == 0, rng.Intn(4) == 0, rng.Intn(5) == 0)
								}
								p.check(t, words)
							})
						}
					}
				}
			}
		}
	}
}
