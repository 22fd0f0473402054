// Differential coverage for the replay engine on real traces: the six
// paper benchmarks and a progen corpus, across associative,
// direct-mapped, and non-LRU geometries, at several worker counts. Each
// program runs on the VM once per geometry with the streaming encoder
// attached; replaying what that run encoded must give back the run's own
// cache statistics — cache.Memory's count — field for field.
package replay_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/progen"
	"repro/internal/replay"
	"repro/internal/vm"
)

// diffGeometries is the sweep each program goes through: the paper's
// 2-way LRU shape with the full unified feature set, a FIFO variant, and
// a direct-mapped cache with multi-word lines (exercising the word-offset
// and demote-not-discard paths).
func diffGeometries() []cache.Config {
	return []cache.Config{
		{Sets: 32, Ways: 2, LineWords: 1, Policy: cache.LRU, Dead: cache.DeadInvalidate, HonorBypass: true, Seed: 1},
		{Sets: 16, Ways: 4, LineWords: 1, Policy: cache.FIFO, Dead: cache.DeadOff, HonorBypass: true, Seed: 1},
		{Sets: 64, Ways: 1, LineWords: 4, Policy: cache.LRU, Dead: cache.DeadDemote, HonorBypass: false, Seed: 1},
	}
}

// compile builds src in the unified mode with the optimizing pipeline.
func compile(t *testing.T, name, src string) *isa.Program {
	t.Helper()
	comp, err := core.Compile(src, core.Config{Mode: core.Unified, Check: true})
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	prog, err := codegen.Generate(comp)
	if err != nil {
		t.Fatalf("%s: codegen: %v", name, err)
	}
	return prog
}

// diffProgram runs prog under every diff geometry with an encoder
// attached and requires replay of each encoded trace, at worker counts
// 1, 2, 4 and 8, to equal the run's own cache statistics.
func diffProgram(t *testing.T, name string, prog *isa.Program, base vm.Config) {
	t.Helper()
	for _, cfg := range diffGeometries() {
		run := base
		run.Cache = cfg
		sink := replay.NewEncoder()
		run.TraceSink = sink
		res, err := vm.Run(prog, run)
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		enc := sink.Finish()
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := replay.Replay(enc, cfg, workers)
			if err != nil {
				t.Fatalf("%s: replay workers=%d: %v", name, workers, err)
			}
			if got != res.CacheStats {
				t.Errorf("%s cfg %+v workers=%d:\nreplay = %+v\nvm     = %+v",
					name, cfg, workers, got, res.CacheStats)
			}
		}
	}
}

// TestReplayMatchesVMOnBenchmarks runs the six paper benchmarks through
// every geometry and worker count. Skipped in -short mode; the progen
// corpus below keeps real-program coverage cheap.
func TestReplayMatchesVMOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark runs are slow; progen corpus covers -short")
	}
	for _, b := range bench.All() {
		diffProgram(t, b.Name, compile(t, b.Name, b.Source), vm.Config{})
	}
}

// TestReplayMatchesVMOnProgenCorpus does the same for 50 generated
// programs.
func TestReplayMatchesVMOnProgenCorpus(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		name := fmt.Sprintf("seed-%d", seed)
		prog := compile(t, name, progen.Source(seed, progen.DefaultKnobs()))
		diffProgram(t, name, prog, vm.Config{MemWords: 1 << 16, MaxSteps: 2_000_000})
	}
}

// TestBatchMatchesSingle pins the batched entry points to their
// one-config forms: MeasureBatch and ReplayBatch decode once and step
// many engines, and every element must be bit-identical (floats
// included) to the corresponding standalone call.
func TestBatchMatchesSingle(t *testing.T) {
	prog := compile(t, "seed-3", progen.Source(3, progen.DefaultKnobs()))
	sink := replay.NewEncoder()
	if _, err := vm.Run(prog, vm.Config{
		MemWords: 1 << 16, MaxSteps: 2_000_000,
		Cache: cache.DefaultConfig(), TraceSink: sink,
	}); err != nil {
		t.Fatal(err)
	}
	enc := sink.Finish()
	if enc.Len() == 0 {
		t.Fatal("seed produced an empty trace")
	}

	var cfgs []cache.Config
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random, cache.MIN} {
		for _, dead := range []cache.DeadMode{cache.DeadOff, cache.DeadInvalidate} {
			cfgs = append(cfgs, cache.Config{
				Sets: 8, Ways: 2, LineWords: 1, Policy: pol,
				Dead: dead, HonorBypass: true, Seed: 1,
			})
		}
	}

	gotM, err := replay.MeasureBatch(enc, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := replay.ReplayBatch(enc, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		wantM, err := replay.Measure(enc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gotM[i] != wantM {
			t.Errorf("cfg %+v: MeasureBatch = %+v, Measure = %+v", cfg, gotM[i], wantM)
		}
		if gotR[i] != wantM.Stats {
			t.Errorf("cfg %+v: ReplayBatch = %+v, want %+v", cfg, gotR[i], wantM.Stats)
		}
	}
}
