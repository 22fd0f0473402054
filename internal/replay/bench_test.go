package replay_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/vm"
)

// paperTrace is one (benchmark, mode) trace of the paper's simulation
// study, with the cache configuration its mode replays under.
type paperTrace struct {
	enc  *replay.Encoded
	mode core.Mode
}

// paperConfig is the paper geometry (32 sets × 2 ways × 1-word lines)
// under pol. Unified mode honours bypass and dead-marks by invalidation;
// conventional mode ignores both bits. It is the sweep grid's unit
// configuration (sweep.Unit.CacheConfig), which this package cannot
// import: the sweep package depends on replay.
func paperConfig(mode core.Mode, pol cache.Policy) cache.Config {
	cfg := cache.Config{Sets: 32, Ways: 2, LineWords: 1, Policy: pol, Seed: 1}
	if mode == core.Unified {
		cfg.Dead = cache.DeadInvalidate
		cfg.HonorBypass = true
	}
	return cfg
}

// paperTraces compiles bubble, intmm, queen and sieve in both modes with
// the baseline compiler (scalars in frame memory) and encodes each VM
// run under LRU: the traces of the paper's §3.2 replacement study.
func paperTraces(b *testing.B) []paperTrace {
	b.Helper()
	var out []paperTrace
	for _, name := range []string{"bubble", "intmm", "queen", "sieve"} {
		bm := bench.Get(name)
		for _, mode := range []core.Mode{core.Conventional, core.Unified} {
			comp, err := core.Compile(bm.Source, core.Config{Mode: mode, StackScalars: true, Check: true})
			if err != nil {
				b.Fatalf("%s/%s: compile: %v", name, mode, err)
			}
			prog, err := codegen.Generate(comp)
			if err != nil {
				b.Fatalf("%s/%s: codegen: %v", name, mode, err)
			}
			sink := replay.NewEncoder()
			if _, err := vm.Run(prog, vm.Config{Cache: paperConfig(mode, cache.LRU), TraceSink: sink}); err != nil {
				b.Fatalf("%s/%s: run: %v", name, mode, err)
			}
			out = append(out, paperTrace{enc: sink.Finish(), mode: mode})
		}
	}
	return out
}

// BenchmarkReplayPaper replays every paper trace under LRU, FIFO and
// Random on one worker, as the simulation study does, and reports the
// replay cost per reference.
func BenchmarkReplayPaper(b *testing.B) {
	traces := paperTraces(b)
	refs := 0
	for _, t := range traces {
		refs += t.enc.Len()
	}
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, t := range traces {
					if _, err := replay.Replay(t.enc, paperConfig(t.mode, pol), 1); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(refs), "ns/ref")
		})
	}
}
