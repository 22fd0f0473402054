// Policy properties of the trace-driven model, and its agreement with
// Memory. Belady's MIN needs future knowledge, so only internal/replay
// runs it; these tests drive replay from an external test package.
package cache_test

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/replay"
	"repro/internal/trace"
)

func replayStats(t *testing.T, tr trace.Trace, cfg cache.Config) cache.Stats {
	t.Helper()
	st, err := replay.Replay(replay.EncodeTrace(tr), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// beladyMisses is the optimal-replacement oracle: the fewest demand
// misses any sequence of eviction choices achieves on addrs (each in
// [0, 64)) in a fully-associative cache of the given number of one-word
// lines. It tries every resident line as the victim at every miss into
// a full cache, memoizing on (position, resident set).
func beladyMisses(addrs []int64, lines int) int {
	memo := map[[2]uint64]int{}
	var best func(i int, resident uint64) int
	best = func(i int, resident uint64) int {
		if i == len(addrs) {
			return 0
		}
		key := [2]uint64{uint64(i), resident}
		if v, ok := memo[key]; ok {
			return v
		}
		bit := uint64(1) << addrs[i]
		var v int
		switch {
		case resident&bit != 0:
			v = best(i+1, resident)
		case bits.OnesCount64(resident) < lines:
			v = 1 + best(i+1, resident|bit)
		default:
			v = math.MaxInt
			for r := resident; r != 0; r &= r - 1 {
				victim := r & -r
				v = min(v, 1+best(i+1, resident&^victim|bit))
			}
		}
		memo[key] = v
		return v
	}
	return best(0, 0)
}

// TestMINMatchesBeladyOracle checks replay's MIN miss count against the
// exhaustive optimum on tiny fully-associative traces. Bypass and
// last-reference bits are set at random but switched off in the
// configuration, so they must not matter.
func TestMINMatchesBeladyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for c := 0; c < 2000; c++ {
		lines := 1 + rng.Intn(4)
		alphabet := 2 + rng.Intn(5)
		tr := make(trace.Trace, 1+rng.Intn(16))
		addrs := make([]int64, len(tr))
		for i := range tr {
			addrs[i] = int64(rng.Intn(alphabet))
			tr[i] = trace.Rec{Addr: addrs[i], Kind: trace.Kind(rng.Intn(2)),
				Bypass: rng.Intn(3) == 0, Last: rng.Intn(3) == 0}
		}
		cfg := cache.Config{Sets: 1, Ways: lines, LineWords: 1, Policy: cache.MIN, Dead: cache.DeadOff, Seed: 1}
		got := replayStats(t, tr, cfg).Misses
		if want := int64(beladyMisses(addrs, lines)); got != want {
			t.Fatalf("case %d: %d lines, addrs %v: MIN misses %d, optimum %d", c, lines, addrs, got, want)
		}
	}
}

// TestMemoryAndSimulatorAgree holds the trace-driven simulator
// (replay) to Memory on random loads and stores with random bypass and
// last-reference bits: the whole Stats struct must be equal under each
// policy Memory executes.
func TestMemoryAndSimulatorAgree(t *testing.T) {
	cfgs := []cache.Config{
		{Sets: 4, Ways: 2, LineWords: 1, Policy: cache.LRU, Dead: cache.DeadInvalidate, HonorBypass: true, Seed: 1},
		{Sets: 2, Ways: 2, LineWords: 1, Policy: cache.FIFO, Dead: cache.DeadDemote, HonorBypass: true, Seed: 1},
		{Sets: 8, Ways: 1, LineWords: 1, Policy: cache.LRU, Dead: cache.DeadOff, HonorBypass: false, Seed: 1},
		{Sets: 2, Ways: 4, LineWords: 4, Policy: cache.LRU, Dead: cache.DeadInvalidate, HonorBypass: true, Seed: 1},
		{Sets: 4, Ways: 2, LineWords: 2, Policy: cache.Random, Dead: cache.DeadOff, HonorBypass: true, Seed: 5},
	}
	rng := rand.New(rand.NewSource(7))
	var tr trace.Trace
	for i := 0; i < 20000; i++ {
		rec := trace.Rec{
			Addr: int64(rng.Intn(512)),
			Kind: trace.Kind(rng.Intn(2)),
		}
		switch rng.Intn(4) {
		case 0:
			rec.Bypass = true
		case 1:
			rec.Bypass = true
			rec.Last = rec.Kind == trace.Load
		}
		tr = append(tr, rec)
	}
	for ci, cfg := range cfgs {
		m, err := cache.NewMemory(1024, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tr {
			if r.Kind == trace.Store {
				m.Store(r.Addr, 1, r.Bypass, r.Last)
			} else {
				m.Load(r.Addr, r.Bypass, r.Last)
			}
		}
		if ms, ts := m.Stats(), replayStats(t, tr, cfg); ms != ts {
			t.Errorf("cfg %d (%s/%s):\nmemory    = %+v\nsimulator = %+v", ci, cfg.Policy, cfg.Dead, ms, ts)
		}
	}
}

func TestMINNotWorseThanOthers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tr trace.Trace
	for i := 0; i < 30000; i++ {
		// Mix of looping and random accesses to create reuse.
		var addr int64
		if rng.Intn(2) == 0 {
			addr = int64(i % 96)
		} else {
			addr = int64(rng.Intn(4096))
		}
		tr = append(tr, trace.Rec{Addr: addr, Kind: trace.Kind(rng.Intn(2))})
	}
	base := cache.Config{Sets: 8, Ways: 4, LineWords: 1, Dead: cache.DeadOff, HonorBypass: false, Seed: 1}
	minCfg := base
	minCfg.Policy = cache.MIN
	minStats := replayStats(t, tr, minCfg)
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random} {
		cfg := base
		cfg.Policy = pol
		if st := replayStats(t, tr, cfg); minStats.Misses > st.Misses {
			t.Errorf("MIN misses %d > %s misses %d", minStats.Misses, pol, st.Misses)
		}
	}
}

// MIN optimality within associativity classes: for a fully-associative
// cache, MIN is the provably optimal replacement; quick-check against
// LRU/FIFO/Random on random traces.
func TestMINOptimalFullyAssociativeQuick(t *testing.T) {
	f := func(seed int64, sizeSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		lines := 4 << (sizeSel % 4) // 4..32
		var tr trace.Trace
		for i := 0; i < 4000; i++ {
			tr = append(tr, trace.Rec{Addr: int64(rng.Intn(128)), Kind: trace.Load})
		}
		base := cache.Config{Sets: 1, Ways: lines, LineWords: 1, Dead: cache.DeadOff, HonorBypass: false, Seed: 1}
		minCfg := base
		minCfg.Policy = cache.MIN
		ms := replayStats(t, tr, minCfg)
		for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random} {
			cfg := base
			cfg.Policy = pol
			if ms.Misses > replayStats(t, tr, cfg).Misses {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDeadMarkingNeverIncreasesTrafficOnSpillPattern(t *testing.T) {
	// Spill-like pattern: store then reload (last) at rotating addresses.
	var tr trace.Trace
	for i := 0; i < 5000; i++ {
		addr := int64(i % 200)
		tr = append(tr, trace.Rec{Addr: addr, Kind: trace.Store})
		tr = append(tr, trace.Rec{Addr: addr, Kind: trace.Load, Bypass: true, Last: true})
	}
	base := cache.Config{Sets: 8, Ways: 2, LineWords: 1, Policy: cache.LRU, HonorBypass: true, Seed: 1}
	off := base
	off.Dead = cache.DeadOff
	on := base
	on.Dead = cache.DeadInvalidate
	so := replayStats(t, tr, off)
	sn := replayStats(t, tr, on)
	if sn.MemTrafficWords(1) > so.MemTrafficWords(1) {
		t.Errorf("dead marking increased traffic: %d > %d",
			sn.MemTrafficWords(1), so.MemTrafficWords(1))
	}
	if sn.DeadDiscards == 0 {
		t.Error("expected dirty discards on the spill pattern")
	}
}
