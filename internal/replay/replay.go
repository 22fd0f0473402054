package replay

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cache"
)

// TraceStats extends cache.Stats with the future-knowledge metrics only a
// trace-driven replay can compute.
type TraceStats struct {
	cache.Stats

	// DeadOccupancy is the average fraction of cache lines holding data
	// that is never referenced again (sampled every sampleEvery
	// references). §3.2 argues plain LRU wastes ~1/r of the cache this
	// way; dead marking reclaims it.
	DeadOccupancy float64

	// AvgResidentLines is the mean number of valid lines at sample points.
	AvgResidentLines float64

	Samples int
}

// checkConfig is the one validation behind every entry point. MIN is
// legal here (replay has future knowledge); everything else defers to
// the cache package's rules. Measuring and MIN store record indexes as
// int32, which bounds the trace length they accept.
func checkConfig(enc *Encoded, cfg cache.Config, measure bool) error {
	probe := cfg
	if probe.Policy == cache.MIN {
		probe.Policy = cache.LRU
	}
	if err := probe.Validate(); err != nil {
		return err
	}
	if measure && enc.Len() >= int(never32) {
		return fmt.Errorf("replay: trace too long to measure (%d refs)", enc.Len())
	}
	if cfg.Policy == cache.MIN && enc.Len() >= int(never32) {
		return fmt.Errorf("replay: trace too long for MIN (%d refs)", enc.Len())
	}
	return nil
}

// minIndex holds MIN's next-use arrays for one replay call, one per line
// size, shared by that call's MIN engines (set shards included). The
// call drops it when it returns, so a trace held for later replays
// never carries one.
type minIndex map[int64][]int32

func (mi minIndex) nextUses(enc *Encoded, lineWords int64) []int32 {
	arr, ok := mi[lineWords]
	if !ok {
		arr = enc.nextUses(lineWords)
		mi[lineWords] = arr
	}
	return arr
}

// newReplayEngine is the one engine constructor behind every entry
// point. It builds an engine for a checked cfg over the set shard
// [lo, hi) with MIN's next-use array from mi wired in and, when measure
// is set, the occupancy machinery. mi may be nil unless cfg is MIN.
func newReplayEngine(enc *Encoded, cfg cache.Config, lo, hi int, measure bool, mi minIndex) *engine {
	eng := newEngine(cfg, lo, hi)
	if cfg.Policy == cache.MIN {
		eng.nextUse = mi.nextUses(enc, int64(cfg.LineWords))
		eng.nuse = make([]int32, cfg.Lines())
	}
	if measure {
		eng.measure = true
		eng.deadRes = make([]bool, cfg.Lines())
		if eng.nextUse == nil {
			eng.finalBit = enc.finalBits(int64(cfg.LineWords))
		}
	}
	return eng
}

// Replay replays an encoded trace against cfg and returns the traffic
// statistics, equal field for field to what cache.Memory counts when it
// executes the same references under cfg.
//
// workers <= 0 means GOMAXPROCS. Parallel replay shards by cache set:
// under a fixed geometry each reference touches exactly one set and sets
// share no state, so each worker replays the full stream filtered to a
// contiguous set range with its own tick counter. Relative recency and
// insertion order within a set are preserved (ticks within a set rise in
// stream order regardless of how many out-of-shard references are
// skipped between them), every counter in Stats is a sum of per-set
// events, and integer addition is associative and commutative — so the
// merged result is bit-identical for any worker count. The Random policy
// is the one exception: it consumes a single PRNG stream in global miss
// order, which sharding would reorder, so it always runs on one worker.
// MIN shards fine — its future-knowledge array is read-only and shared.
//
// On one worker a 2-way cache under LRU, FIFO or Random (the paper's
// geometry) is replayed by the two-way kernel (twoway.go) instead of the
// engine; the statistics are the same.
func Replay(enc *Encoded, cfg cache.Config, workers int) (cache.Stats, error) {
	if err := checkConfig(enc, cfg, false); err != nil {
		return cache.Stats{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Policy == cache.Random {
		workers = 1
	}
	workers = min(workers, cfg.Sets)
	if workers == 1 && twoWay(cfg) {
		return replay2(enc, cfg), nil
	}

	engs := make([]*engine, workers)
	mi := minIndex{}
	for k := range engs {
		engs[k] = newReplayEngine(enc, cfg, k*cfg.Sets/workers, (k+1)*cfg.Sets/workers, false, mi)
	}
	if workers == 1 {
		engs[0].run(enc)
		return engs[0].c.Stats(), nil
	}

	var wg sync.WaitGroup
	for _, eng := range engs {
		wg.Add(1)
		go func(eng *engine) {
			defer wg.Done()
			eng.run(enc)
		}(eng)
	}
	wg.Wait()

	var total cache.Stats
	for _, eng := range engs {
		addStats(&total, eng.c.Stats())
	}
	return total, nil
}

// addStats merges shard statistics by field-wise sum. Every Stats field
// counts per-set events, so the sum over disjoint set ranges equals the
// sequential count. (New Stats fields must be added here; the sharded
// differential tests catch omissions.)
func addStats(a *cache.Stats, b cache.Stats) {
	a.Refs += b.Refs
	a.CachedRefs += b.CachedRefs
	a.BypassRefs += b.BypassRefs
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Fetches += b.Fetches
	a.Writebacks += b.Writebacks
	a.StoreAllocs += b.StoreAllocs
	a.BypassReads += b.BypassReads
	a.BypassWrites += b.BypassWrites
	a.DeadMarks += b.DeadMarks
	a.DeadDiscards += b.DeadDiscards
	a.SingleUseFills += b.SingleUseFills
	a.Evictions += b.Evictions
}

func measureResult(eng *engine) TraceStats {
	var st TraceStats
	st.Stats = eng.c.Stats()
	st.Samples = eng.samples
	if eng.samples > 0 {
		st.DeadOccupancy = eng.occSum / float64(eng.samples)
		st.AvgResidentLines = eng.resSum / float64(eng.samples)
	}
	return st
}

// MeasureBatch replays several configurations of the same trace in a
// single decoding pass on one goroutine and additionally computes the
// future-knowledge occupancy metrics (DeadOccupancy, AvgResidentLines).
// Sampling is over global reference counts, so it never shards. The
// engines are fully independent — each keeps its own statistics,
// sampling accumulators and PRNG — so every element of the result is
// what a batch of that configuration alone returns; batching only avoids
// re-decoding the stream once per configuration, which dominates
// experiments like E2/E3 that sweep many cache shapes over one workload.
func MeasureBatch(enc *Encoded, cfgs []cache.Config) ([]TraceStats, error) {
	engs := make([]*engine, len(cfgs))
	mi := minIndex{}
	for i, cfg := range cfgs {
		if err := checkConfig(enc, cfg, true); err != nil {
			return nil, err
		}
		engs[i] = newReplayEngine(enc, cfg, 0, cfg.Sets, true, mi)
	}
	runBatch(enc, engs)
	out := make([]TraceStats, len(engs))
	for i, eng := range engs {
		out[i] = measureResult(eng)
	}
	return out, nil
}

// ReplayBatch is Replay over several configurations of the same trace
// on one goroutine (use Replay for set-sharded parallel replay of a
// single configuration). Configurations the two-way kernel takes are
// replayed by it one at a time, since its whole per-reference cost,
// decode included, is below the engine's step alone; the rest share a
// single decoding pass through their engines. Each element of the
// result, in input order, is bit-identical to Replay's for the
// corresponding configuration.
func ReplayBatch(enc *Encoded, cfgs []cache.Config) ([]cache.Stats, error) {
	for _, cfg := range cfgs {
		if err := checkConfig(enc, cfg, false); err != nil {
			return nil, err
		}
	}
	out := make([]cache.Stats, len(cfgs))
	var engs []*engine
	var at []int // out index of each engine
	mi := minIndex{}
	for i, cfg := range cfgs {
		if twoWay(cfg) {
			out[i] = replay2(enc, cfg)
			continue
		}
		engs = append(engs, newReplayEngine(enc, cfg, 0, cfg.Sets, false, mi))
		at = append(at, i)
	}
	if len(engs) > 0 {
		runBatch(enc, engs)
	}
	for k, eng := range engs {
		out[at[k]] = eng.c.Stats()
	}
	return out, nil
}
