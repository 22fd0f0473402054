package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/vm"
)

// Runner is the slice of the artifact cache RunGroup needs.
// *artifact.Cache satisfies it directly; *artifact.Session satisfies it
// with a reuse class and GC pinning attached — which is how the serving
// daemon runs campaign groups without letting a concurrent GC cycle evict
// the artifacts mid-campaign.
type Runner interface {
	BuildIR(src string, cfg core.Config) (*artifact.Artifact, error)
	RunBatch(art *artifact.Artifact, cfgs []vm.Config) ([]*vm.Result, error)
}

// Options controls one engine run.
type Options struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS. The pool never
	// outnumbers the groups to run. Results do not depend on it: records
	// are merged in canonical unit order.
	Workers int

	// Artifacts is the compile/run cache to draw on; nil builds a private
	// one. Sharing a cache across runs (resume, repeated sweeps in one
	// process) skips recompilation.
	Artifacts *artifact.Cache

	// Done maps unit keys to already-measured records (from a previous,
	// possibly truncated, result file). Matching units are not re-run;
	// their records are merged verbatim.
	Done map[string]Record

	// Progress, when non-nil, is called once per finished unit (resumed
	// units first, then each group's as it finishes) with the running
	// completion count. Calls are serialized by the engine.
	Progress func(done, total int, r Record)
}

// Result is a finished sweep.
type Result struct {
	Grid    Grid
	Records []Record // canonical unit order
	Ran     int      // units executed (total - resumed)
	Workers int      // pool size used: Options.Workers clipped to the groups run
	Elapsed time.Duration
}

// Run expands the grid and executes every unit not already in opt.Done,
// one execution identity (a Groups element) per task on a worker pool.
// The merged records are in canonical unit order and bit-identical for
// any worker count: group execution is deterministic (fixed seeds, no
// shared mutable state) and scheduling only affects progress order.
func Run(g Grid, opt Options) (*Result, error) {
	units, err := g.Units()
	if err != nil {
		return nil, err
	}
	arts := opt.Artifacts
	if arts == nil {
		arts = artifact.New()
	}

	start := time.Now() //unilint:ok wallclock progress display and Result.Elapsed only; the artifact serializes neither
	res := &Result{Grid: g, Records: make([]Record, len(units))}
	var mu sync.Mutex // serializes Progress and the done counter
	done := 0
	report := func(rs []Record) {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range rs {
			if done++; opt.Progress != nil {
				opt.Progress(done, len(units), r)
			}
		}
	}
	var todo []Unit
	for i, u := range units {
		if r, ok := opt.Done[u.Key()]; ok {
			res.Records[i] = r
			report(res.Records[i : i+1])
		} else {
			todo = append(todo, u)
		}
	}
	groups := Groups(todo)
	res.Ran, res.Workers = len(todo), opt.Workers
	if res.Workers <= 0 {
		res.Workers = runtime.GOMAXPROCS(0)
	}
	res.Workers = min(res.Workers, len(groups))

	errs := make([]error, len(groups))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < res.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range next {
				rs, err := RunGroup(arts, groups[gi], nil)
				for k, r := range rs {
					res.Records[groups[gi][k].Index] = r
				}
				errs[gi] = err
				report(rs)
			}
		}()
	}
	for gi := range groups {
		next <- gi
	}
	close(next)
	wg.Wait()

	for gi, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: unit %s: %w", groups[gi][0].Key(), err)
		}
	}
	res.Elapsed = time.Since(start) //unilint:ok wallclock Elapsed stays in memory; WriteJSON emits no timing fields
	return res, nil
}

// Groups splits units into maximal runs of one execution identity
// (benchmark, compiler), in order: both modes run the unified program.
// Canonical order keeps each identity's units contiguous, so any
// subsequence of a grid's units forms one group per identity it touches.
func Groups(units []Unit) [][]Unit {
	var out [][]Unit
	start := 0
	for i := 1; i <= len(units); i++ {
		if i == len(units) || units[i].Bench.Name != units[start].Bench.Name ||
			units[i].Compiler != units[start].Compiler {
			out = append(out, units[start:i])
			start = i
		}
	}
	return out
}

// RunGroup measures one non-empty Groups element with one BuildIR of the
// unified program (a disk-restored artifact has no IR, and the static
// columns need it) and one RunBatch: the VM executes at most once and
// every other configuration, both modes', replays its trace. Each unit's
// output is checked against the benchmark's expected text. The records,
// in unit order, are pure functions of the units: cancel (optional; it
// reaches the VM run, not the replays) and the Runner's caching never
// change their bytes, which makes a remote campaign byte-identical to a
// local sweep.
func RunGroup(r Runner, units []Unit, cancel <-chan struct{}) ([]Record, error) {
	cfg := units[0].CoreConfig()
	cfg.Mode = core.Unified
	art, err := r.BuildIR(units[0].Bench.Source, cfg)
	if err != nil {
		return nil, err
	}
	cfgs := make([]vm.Config, len(units))
	for i, u := range units {
		cfgs[i] = vm.Config{Cache: u.CacheConfig(), Done: cancel}
	}
	res, err := r.RunBatch(art, cfgs)
	if err != nil {
		return nil, err
	}
	recs := make([]Record, len(units))
	for i, u := range units {
		if u.Bench.Expected != "" && res[i].Output != u.Bench.Expected {
			return nil, fmt.Errorf("output %q, want %q", res[i].Output, u.Bench.Expected)
		}
		recs[i] = u.Record()
		recs[i].SetStatic(art.Comp.Stats.Under(u.CoreConfig().Mode), spilledWebs(art))
		recs[i].SetStats(res[i].CacheStats)
		recs[i].Instructions = res[i].Instructions
	}
	return recs, nil
}

func spilledWebs(art *artifact.Artifact) int {
	n := 0
	for _, a := range art.Comp.Allocs {
		n += a.SpilledWebs
	}
	return n
}
