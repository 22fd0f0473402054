package replay

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// testConfigs is the cross-section of configs the synthetic differential
// sweeps: every policy, every dead mode, bypass on/off, small and large
// associativity (the latter exercises the hash tag index), direct-mapped
// and fully-associative shapes, multi-word lines. The 2-way shapes run
// on the two-way kernel wherever Replay uses one worker.
func testConfigs() []cache.Config {
	var out []cache.Config
	base := []cache.Config{
		{Sets: 32, Ways: 2, LineWords: 1},
		{Sets: 16, Ways: 4, LineWords: 1},
		{Sets: 64, Ways: 1, LineWords: 1},
		{Sets: 8, Ways: 2, LineWords: 4},
		{Sets: 1, Ways: 64, LineWords: 1}, // fully associative, hash index
		{Sets: 2, Ways: 16, LineWords: 2}, // hash index, sharded sets
		{Sets: 4, Ways: 8, LineWords: 1},  // widest way scan (directLookupMaxWays)
		{Sets: 8, Ways: 3, LineWords: 2},  // not a power of two: Random's % ways, the invalid-way mask
	}
	for _, g := range base {
		for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random, cache.MIN} {
			for _, dead := range []cache.DeadMode{cache.DeadOff, cache.DeadInvalidate, cache.DeadDemote} {
				for _, hb := range []bool{false, true} {
					cfg := g
					cfg.Policy = pol
					cfg.Dead = dead
					cfg.HonorBypass = hb
					cfg.Seed = 7
					out = append(out, cfg)
				}
			}
		}
	}
	return out
}

// TestEngineMatchesMemory is the synthetic differential. cache.Memory,
// which the VM executes against, is the reference for every policy it
// implements: the whole Stats struct from MeasureBatch, and from Replay at
// every worker count, must equal what Memory counts on the same
// references. MIN, which Memory cannot execute, is held to one answer
// across the entry points here; internal/cache's Belady oracle test
// checks that answer is optimal.
func TestEngineMatchesMemory(t *testing.T) {
	for ti, tr := range []trace.Trace{
		randomTrace(10, 5000),
		randomTrace(11, 20000),
		hotColdTrace(3000),
	} {
		tr, words := compact(tr)
		enc := EncodeTrace(tr)
		for _, cfg := range testConfigs() {
			gots, err := MeasureBatch(enc, []cache.Config{cfg})
			if err != nil {
				t.Fatal(err)
			}
			got := gots[0]
			if cfg.Policy != cache.MIN {
				if want := memoryStats(t, tr, words, cfg); got.Stats != want {
					t.Fatalf("trace %d cfg %+v:\nMeasureBatch = %+v\nMemory       = %+v", ti, cfg, got.Stats, want)
				}
			}
			for _, workers := range []int{1, 2, 4, 8} {
				st, err := Replay(enc, cfg, workers)
				if err != nil {
					t.Fatal(err)
				}
				if st != got.Stats {
					t.Fatalf("trace %d cfg %+v workers %d:\nReplay       = %+v\nMeasureBatch = %+v",
						ti, cfg, workers, st, got.Stats)
				}
			}
		}
	}
}

// compactBlock is a multiple of Sets*LineWords for every testConfigs
// geometry, so an address's set and word offset depend only on its
// position within its compactBlock-word block.
const compactBlock = 64

// compact renumbers tr's compactBlock-word address blocks densely, in
// order of first use, so cache.Memory can hold the footprint of a trace
// that jumps across a 2^40-word range. Distinct lines stay distinct and
// keep their sets, so every testConfigs cache sees the same reference
// structure. It returns the renumbered trace and the memory size it
// needs.
func compact(tr trace.Trace) (trace.Trace, int) {
	blocks := map[int64]int64{}
	out := make(trace.Trace, len(tr))
	for i, r := range tr {
		blk, off := r.Addr/compactBlock, r.Addr%compactBlock
		if off < 0 {
			blk, off = blk-1, off+compactBlock
		}
		id, ok := blocks[blk]
		if !ok {
			id = int64(len(blocks))
			blocks[blk] = id
		}
		r.Addr = id*compactBlock + off
		out[i] = r
	}
	return out, len(blocks) * compactBlock
}

// memoryStats executes tr's references on a cache.Memory of the given
// size under cfg and returns its statistics.
func memoryStats(t *testing.T, tr trace.Trace, words int, cfg cache.Config) cache.Stats {
	t.Helper()
	m, err := cache.NewMemory(words, cfg)
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
	return m.Stats()
}

// hotColdTrace mixes a hot working set with cold single-use streaming
// references tagged Last — the access pattern dead marking exists for.
func hotColdTrace(n int) trace.Trace {
	var tr trace.Trace
	for i := 0; i < n; i++ {
		tr = append(tr, trace.Rec{Addr: int64(i % 16)})
		if i%3 == 0 {
			tr = append(tr, trace.Rec{Addr: int64(1000 + i), Kind: trace.Store, Last: true})
		}
		if i%5 == 0 {
			tr = append(tr, trace.Rec{Addr: int64(2000 + i%7), Bypass: true})
		}
	}
	return tr
}

func TestReplayEmptyTrace(t *testing.T) {
	enc := EncodeTrace(nil)
	cfg := cache.DefaultConfig()
	st, err := Replay(enc, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st != (cache.Stats{}) {
		t.Fatalf("empty trace produced stats %+v", st)
	}
	ms, err := MeasureBatch(enc, []cache.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if ms[0] != (TraceStats{}) {
		t.Fatalf("empty trace produced trace stats %+v", ms)
	}
}

// TestMeasureOccupancy pins the occupancy metrics to values worked out
// by hand on a 128-reference trace in a 2-line fully-associative cache
// (one set, two ways, one-word lines, no bypass, no dead marking):
//
//	refs   0..63   alternate addresses 0 and 1 (0 on even refs)
//	refs  64..126  address 2
//	ref   127      address 0
//
// Final references: address 1 at ref 63, address 2 at ref 126, address 0
// at ref 127. Samples fall after every 64th reference, i.e. after refs
// 63 and 127, and count a resident line as dead when its latest touch
// was its final reference.
//
// LRU. Sample 1: {0 (touched 62), 1 (touched 63)}; only 1 is dead, so
// 1/2 dead. Ref 64 evicts 0 (least recent) for 2; ref 127 evicts 1 for
// 0. Sample 2: {2 (touched 126), 0 (touched 127)}, both dead: 2/2.
// DeadOccupancy = (0.5+1)/2 = 0.75, AvgResidentLines = (2+2)/2 = 2.
// Misses: refs 0, 1, 64, 127 = 4.
//
// MIN. Sample 1 as under LRU: 1/2. Ref 64 evicts 1 (never used again)
// rather than 0 (next used at 127), so ref 127 hits. Sample 2: {0, 2},
// both dead: 2/2. DeadOccupancy 0.75, AvgResidentLines 2, misses 3.
func TestMeasureOccupancy(t *testing.T) {
	var tr trace.Trace
	for i := 0; i < 64; i++ {
		tr = append(tr, trace.Rec{Addr: int64(i % 2)})
	}
	for i := 64; i < 127; i++ {
		tr = append(tr, trace.Rec{Addr: 2})
	}
	tr = append(tr, trace.Rec{Addr: 0})
	enc := EncodeTrace(tr)
	type occupancy struct {
		samples     int
		dead, lines float64
		misses      int64
	}
	for _, c := range []struct {
		pol  cache.Policy
		want occupancy
	}{{cache.LRU, occupancy{2, 0.75, 2, 4}}, {cache.MIN, occupancy{2, 0.75, 2, 3}}} {
		tss, err := MeasureBatch(enc, []cache.Config{{Sets: 1, Ways: 2, LineWords: 1, Policy: c.pol, Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		ts := tss[0]
		if got := (occupancy{ts.Samples, ts.DeadOccupancy, ts.AvgResidentLines, ts.Misses}); got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.pol, got, c.want)
		}
	}
}

func TestReplayRejectsBadConfig(t *testing.T) {
	enc := EncodeTrace(randomTrace(12, 10))
	if _, err := Replay(enc, cache.Config{Sets: 3, Ways: 1, LineWords: 1}, 1); err == nil {
		t.Fatal("non-power-of-two sets accepted")
	}
	if _, err := MeasureBatch(enc, []cache.Config{{Sets: 0, Ways: 1, LineWords: 1}}); err == nil {
		t.Fatal("zero sets accepted")
	}
}

// TestReplayZeroAllocs guards the per-reference cost: the engine's
// replay loop allocates nothing at all, and the entry points allocate
// per call only (the engine or the two-way kernel's set array, the
// result slices), never per reference — the count is the same at 20k
// and at 200k references. It covers the scan path, the hash-index path
// and the kernel.
func TestReplayZeroAllocs(t *testing.T) {
	small := EncodeTrace(randomTrace(13, 20_000))
	large := EncodeTrace(randomTrace(14, 200_000))
	cfgs := []cache.Config{
		{Sets: 32, Ways: 2, LineWords: 1, Policy: cache.LRU, Dead: cache.DeadInvalidate, HonorBypass: true, Seed: 1}, // kernel
		{Sets: 8, Ways: 2, LineWords: 4, Policy: cache.Random, Dead: cache.DeadDemote, Seed: 1},                      // kernel
		{Sets: 1, Ways: 64, LineWords: 1, Policy: cache.LRU, Seed: 1},                                                // tagIndex path
		{Sets: 16, Ways: 4, LineWords: 1, Policy: cache.Random, Seed: 1},
	}
	perCall := func(name string, call func(enc *Encoded) error) {
		t.Helper()
		var allocs [2]float64
		for k, enc := range []*Encoded{small, large} {
			allocs[k] = testing.AllocsPerRun(1, func() {
				if err := call(enc); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %v allocs per call at %d refs, %v at %d refs",
				name, allocs[0], small.Len(), allocs[1], large.Len())
		}
	}
	for _, cfg := range cfgs {
		eng := newEngine(cfg, 0, cfg.Sets)
		if allocs := testing.AllocsPerRun(3, func() { eng.run(small) }); allocs != 0 {
			t.Fatalf("cfg %+v: %v allocs per engine run of %d refs, want 0", cfg, allocs, small.Len())
		}
		perCall(fmt.Sprintf("Replay %+v", cfg), func(enc *Encoded) error {
			_, err := Replay(enc, cfg, 1)
			return err
		})
		perCall(fmt.Sprintf("ReplayBatch %+v", cfg), func(enc *Encoded) error {
			_, err := ReplayBatch(enc, []cache.Config{cfg})
			return err
		})
	}
	perCall("ReplayBatch of every cfg", func(enc *Encoded) error {
		_, err := ReplayBatch(enc, cfgs)
		return err
	})
}

func BenchmarkReplay(b *testing.B) {
	enc := EncodeTrace(randomTrace(20, 200_000))
	cfg := cache.DefaultConfig()
	b.SetBytes(int64(enc.Len()))
	for i := 0; i < b.N; i++ {
		if _, err := Replay(enc, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}
