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

// newReplayEngine is the one engine constructor behind every entry
// point. It validates cfg — MIN is legal here (replay has future
// knowledge), everything else defers to the cache package's rules — and
// builds an engine over the set shard [lo, hi) with MIN's next-use array
// wired in and, when measure is set, the occupancy machinery.
func newReplayEngine(enc *Encoded, cfg cache.Config, lo, hi int, measure bool) (*engine, error) {
	probe := cfg
	if probe.Policy == cache.MIN {
		probe.Policy = cache.LRU
	}
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	if measure && enc.Len() >= int(never32) {
		// Final-reference indexes are stored as int32.
		return nil, fmt.Errorf("replay: trace too long to measure (%d refs)", enc.Len())
	}
	eng := newEngine(cfg, lo, hi)
	if cfg.Policy == cache.MIN {
		nu, ok := enc.nextUses(int64(cfg.LineWords))
		if !ok {
			return nil, fmt.Errorf("replay: trace too long for MIN (%d refs)", enc.Len())
		}
		eng.nextUse = nu
		eng.nuse = make([]int32, cfg.Lines())
	}
	if measure {
		eng.measure = true
		eng.deadRes = make([]bool, cfg.Lines())
		if eng.nextUse == nil {
			eng.finalBit = enc.finalBits(int64(cfg.LineWords))
		}
	}
	return eng, nil
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
func Replay(enc *Encoded, cfg cache.Config, workers int) (cache.Stats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Policy == cache.Random {
		workers = 1
	}
	workers = min(workers, max(cfg.Sets, 1))

	engs := make([]*engine, workers)
	for k := range engs {
		eng, err := newReplayEngine(enc, cfg, k*cfg.Sets/workers, (k+1)*cfg.Sets/workers, false)
		if err != nil {
			return cache.Stats{}, err
		}
		engs[k] = eng
	}
	if workers == 1 {
		engs[0].run(enc)
		return engs[0].st, nil
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
		addStats(&total, eng.st)
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

// Measure replays single-threaded and additionally computes the
// future-knowledge occupancy metrics (DeadOccupancy, AvgResidentLines).
// Sampling is over global reference counts, so Measure never shards.
func Measure(enc *Encoded, cfg cache.Config) (TraceStats, error) {
	eng, err := newReplayEngine(enc, cfg, 0, cfg.Sets, true)
	if err != nil {
		return TraceStats{}, err
	}
	eng.run(enc)
	return measureResult(eng), nil
}

func measureResult(eng *engine) TraceStats {
	var st TraceStats
	st.Stats = eng.st
	st.Samples = eng.samples
	if eng.samples > 0 {
		st.DeadOccupancy = eng.occSum / float64(eng.samples)
		st.AvgResidentLines = eng.resSum / float64(eng.samples)
	}
	return st
}

// batchEngines builds one full-cache engine per configuration and steps
// them all through a single decoding pass of enc.
func batchEngines(enc *Encoded, cfgs []cache.Config, measure bool) ([]*engine, error) {
	engs := make([]*engine, len(cfgs))
	for i, cfg := range cfgs {
		eng, err := newReplayEngine(enc, cfg, 0, cfg.Sets, measure)
		if err != nil {
			return nil, err
		}
		engs[i] = eng
	}
	runBatch(enc, engs)
	return engs, nil
}

// MeasureBatch is Measure over several configurations of the same trace
// in a single decoding pass. The engines are fully independent — each
// keeps its own statistics, sampling accumulators, and PRNG — so every
// element of the result is bit-identical to calling Measure with the
// corresponding configuration alone; batching only avoids re-decoding
// the stream once per configuration, which dominates experiments like
// E2/E3 that sweep many cache shapes over one workload.
func MeasureBatch(enc *Encoded, cfgs []cache.Config) ([]TraceStats, error) {
	engs, err := batchEngines(enc, cfgs, true)
	if err != nil {
		return nil, err
	}
	out := make([]TraceStats, len(engs))
	for i, eng := range engs {
		out[i] = measureResult(eng)
	}
	return out, nil
}

// ReplayBatch is Replay over several configurations of the same trace in
// a single decoding pass on one goroutine (use Replay for set-sharded
// parallel replay of a single configuration). Each element of the result
// is bit-identical to Replay's for the corresponding configuration.
func ReplayBatch(enc *Encoded, cfgs []cache.Config) ([]cache.Stats, error) {
	engs, err := batchEngines(enc, cfgs, false)
	if err != nil {
		return nil, err
	}
	out := make([]cache.Stats, len(engs))
	for i, eng := range engs {
		out[i] = eng.st
	}
	return out, nil
}
