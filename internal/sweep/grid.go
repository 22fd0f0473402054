package sweep

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
)

// Compiler-config labels accepted by Grid.Compilers.
const (
	CompilerBaseline   = "baseline"   // scalars in frame memory (the paper's reference mix)
	CompilerOptimizing = "optimizing" // scalars in registers (our full pipeline)
)

// Management-mode labels accepted by Grid.Modes.
const (
	ModeUnified      = "unified"
	ModeConventional = "conventional"
)

// Grid is a sweep specification: the cross product of every listed
// dimension is the set of work units. The zero value is invalid; use
// PaperGrid or fill every slice.
type Grid struct {
	Benchmarks []string `json:"benchmarks"`
	Compilers  []string `json:"compilers"`
	Modes      []string `json:"modes"`
	Sets       []int    `json:"sets"`
	Ways       []int    `json:"ways"`
	LineWords  []int    `json:"line_words"`
	Policies   []string `json:"policies"`
}

// PaperGrid is the full evaluation grid of the perf baseline: all six
// benchmarks under the baseline compiler, both management modes, twelve
// geometries bracketing the paper's 64-line cache, and the three
// executable replacement policies — 432 units.
func PaperGrid() Grid {
	var names []string
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	return Grid{
		Benchmarks: names,
		Compilers:  []string{CompilerBaseline},
		Modes:      []string{ModeConventional, ModeUnified},
		Sets:       []int{8, 16, 32, 64},
		Ways:       []int{1, 2, 4},
		LineWords:  []int{1},
		Policies:   []string{"lru", "fifo", "random"},
	}
}

// Size is the number of work units the grid expands to.
func (g Grid) Size() int {
	return len(g.Benchmarks) * len(g.Compilers) * len(g.Modes) *
		len(g.Sets) * len(g.Ways) * len(g.LineWords) * len(g.Policies)
}

// Validate checks every dimension value. MIN is rejected: it needs future
// knowledge only the trace-driven simulator has, and sweep units execute.
func (g Grid) Validate() error {
	if g.Size() == 0 {
		return fmt.Errorf("sweep: empty grid (every dimension needs at least one value)")
	}
	for _, name := range g.Benchmarks {
		if bench.Get(name) == nil {
			return fmt.Errorf("sweep: unknown benchmark %q", name)
		}
	}
	for _, cc := range g.Compilers {
		if cc != CompilerBaseline && cc != CompilerOptimizing {
			return fmt.Errorf("sweep: unknown compiler config %q (want %s or %s)",
				cc, CompilerBaseline, CompilerOptimizing)
		}
	}
	for _, m := range g.Modes {
		if m != ModeUnified && m != ModeConventional {
			return fmt.Errorf("sweep: unknown mode %q (want %s or %s)", m, ModeUnified, ModeConventional)
		}
	}
	for _, p := range g.Policies {
		pol, err := cache.ParsePolicy(p)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if pol == cache.MIN {
			return fmt.Errorf("sweep: policy min needs the trace-driven simulator; sweep units execute")
		}
	}
	for _, u := range g.units(nil) {
		if err := u.CacheConfig().Validate(); err != nil {
			return fmt.Errorf("sweep: unit %s: %w", u.Key(), err)
		}
	}
	return nil
}

// Unit is one work item: a fully specified configuration to compile
// (artifact-cached) and simulate.
type Unit struct {
	Index     int // position in canonical order
	Bench     bench.Benchmark
	Compiler  string
	Mode      string
	Sets      int
	Ways      int
	LineWords int
	Policy    cache.Policy
}

// Units expands the grid in canonical order: benchmarks, then compilers,
// modes, sets, ways, line words, policies — the nesting of the field
// declarations. The order is the contract that makes merged output
// independent of scheduling.
func (g Grid) Units() ([]Unit, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g.units(nil), nil
}

func (g Grid) units(into []Unit) []Unit {
	for _, name := range g.Benchmarks {
		b := bench.Get(name)
		if b == nil {
			b = &bench.Benchmark{Name: name}
		}
		for _, cc := range g.Compilers {
			for _, mode := range g.Modes {
				for _, sets := range g.Sets {
					for _, ways := range g.Ways {
						for _, lw := range g.LineWords {
							for _, ps := range g.Policies {
								pol, _ := cache.ParsePolicy(ps)
								into = append(into, Unit{
									Index: len(into), Bench: *b, Compiler: cc, Mode: mode,
									Sets: sets, Ways: ways, LineWords: lw, Policy: pol,
								})
							}
						}
					}
				}
			}
		}
	}
	return into
}

// CoreConfig is the compiler configuration of the unit in its own mode.
// RunGroup compiles it with Mode set to Unified for both modes.
func (u Unit) CoreConfig() core.Config {
	mode := core.Unified
	if u.Mode == ModeConventional {
		mode = core.Conventional
	}
	return core.Config{Mode: mode, StackScalars: u.Compiler == CompilerBaseline, Check: true}
}

// CacheConfig is the simulated hardware of the unit. Unified mode honors
// bypass and dead-marks by invalidation (the paper's hardware);
// conventional mode ignores both bits.
func (u Unit) CacheConfig() cache.Config {
	cc := cache.Config{Sets: u.Sets, Ways: u.Ways, LineWords: u.LineWords,
		Policy: u.Policy, Seed: 1}
	if u.Mode == ModeUnified {
		cc.Dead = cache.DeadInvalidate
		cc.HonorBypass = true
	}
	return cc
}

// Record returns the unit's record skeleton (identity fields and key, no
// measurements).
func (u Unit) Record() Record {
	return NewRecord(u.Bench.Name, u.Compiler, u.Mode, u.CacheConfig())
}

// Key is the unit's canonical identity, matching the key of the record it
// produces (the resume contract).
func (u Unit) Key() string {
	r := u.Record()
	return r.Key
}
