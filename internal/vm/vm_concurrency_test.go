package vm

import (
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
)

// concurrencyProg exercises every memory flavor (cached, bypass,
// dead-marked) in a loop long enough that concurrent runs genuinely
// overlap.
const concurrencyProg = `
.globals 8
.init 64 0
    jal main
    halt
main:
    li $t0, 64
    li $t1, 0
    li $t2, 2000
main.loop:
    lw.am $t3, 0($t0)
    add $t3, $t3, $t1
    sw.am $t3, 0($t0)
    sw.um $t1, 1($t0)
    lw.uml $t4, 1($t0)
    addi $t1, $t1, 1
    sub $t5, $t1, $t2
    bnez $t5, main.loop
    lw.um $t6, 0($t0)
    print $t6
    jr $ra
`

// countSink is a TraceSink that only counts events: each traced run owns
// one, so concurrent runs share no sink state.
type countSink struct{ n int64 }

func (c *countSink) Ref(RefEvent) { c.n++ }

// TestConcurrentRunsShareProgram proves the property the sweep engine's
// worker pool depends on: Run never mutates the *Program, so any number
// of simulations of one compiled artifact may execute at once. Run under
// -race (CI does) this fails on any shared-state write.
func TestConcurrentRunsShareProgram(t *testing.T) {
	prog, err := isa.Assemble(concurrencyProg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(prog, Config{Cache: cache.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	results := make([]*Result, workers)
	errs := make([]error, workers)
	sinks := make([]countSink, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{Cache: cache.DefaultConfig()}
			if i%2 == 1 {
				cfg.Cache = cache.ConventionalConfig()
				cfg.TraceSink = &sinks[i]
			}
			results[i], errs[i] = Run(prog, cfg)
		}(i)
	}
	wg.Wait()

	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if results[i].Output != ref.Output {
			t.Errorf("run %d: output %q, want %q", i, results[i].Output, ref.Output)
		}
		if i%2 == 1 && sinks[i].n != results[i].Loads+results[i].Stores {
			t.Errorf("run %d: sink saw %d refs, want %d", i, sinks[i].n, results[i].Loads+results[i].Stores)
		}
	}
	// Same-config runs must also agree on every statistic.
	again, err := Run(prog, Config{Cache: cache.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheStats != ref.CacheStats {
		t.Errorf("repeated run stats diverge: %+v vs %+v", again.CacheStats, ref.CacheStats)
	}
}
