// Package sweep is the design-space exploration engine of the repo: it
// expands a grid specification (benchmarks × compiler configs × cache
// geometries × replacement policies × management modes) into work units,
// executes them on a worker pool, and merges the results in canonical
// order so the output is bit-identical regardless of worker count.
//
// The unit of data is the Record: one measured configuration with its
// complete word-exact traffic accounting. Records are the shared data
// model between unisweep (which writes them as the machine-readable
// BENCH_sweep.json perf artifact) and unibench (whose paper tables render
// from Record streams).
package sweep

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
)

// Record is one measured point of the design space: a benchmark compiled
// under one compiler configuration and management mode, simulated on one
// cache geometry and replacement policy.
//
// Wall-clock time is deliberately excluded from the JSON encoding: the
// sweep artifact must be byte-identical across runs and worker counts,
// and wall time is the one quantity that never is.
type Record struct {
	// Key is the canonical identity of the configuration, used for resume
	// matching; Record.SetKey derives it from the fields below.
	Key string `json:"key"`

	Experiment string `json:"experiment,omitempty"` // producing experiment ("" for sweep units)

	Bench     string `json:"bench"`
	Compiler  string `json:"compiler"` // compiler-config label ("baseline", "optimizing", ...)
	Mode      string `json:"mode"`     // "unified" | "conventional"
	Sets      int    `json:"sets"`
	Ways      int    `json:"ways"`
	LineWords int    `json:"line_words"`
	Policy    string `json:"policy"`
	Dead      string `json:"dead"`         // dead-marking mode in effect
	Bypass    bool   `json:"honor_bypass"` // bypass bit honored by the hardware

	// Static classification of the compilation (zero for trace replays
	// that reuse another record's compilation).
	StaticSites     int     `json:"static_sites,omitempty"`
	StaticBypass    int     `json:"static_bypass,omitempty"`
	StaticCached    int     `json:"static_cached,omitempty"`
	StaticBypassPct float64 `json:"static_bypass_pct,omitempty"`
	SpilledWebs     int     `json:"spilled_webs,omitempty"`

	// Exact hit/miss classification of the compilation's reference sites
	// (the precision experiment; zero elsewhere). PreHit/PreMiss count
	// sites the must/may prefilter decided, ExactHit/ExactMiss sites only
	// the exact refinement could decide, Irreducible sites neither could.
	PreHit      int `json:"pre_hit,omitempty"`
	PreMiss     int `json:"pre_miss,omitempty"`
	ExactHit    int `json:"exact_hit,omitempty"`
	ExactMiss   int `json:"exact_miss,omitempty"`
	Irreducible int `json:"irreducible,omitempty"`

	// Exact-solver instrumentation (the scaling experiment; zero
	// elsewhere). Solver names the refinement solver ("antichain") and
	// joins the key, so units that differ only in solver stay distinct and
	// resumable. AnalysisSteps counts state-transfer
	// applications (the deterministic work measure — never wall-clock),
	// AnalysisStates the peak focus-set width, and AnalysisExhausted
	// records that the step budget ran out (remaining sites degraded to
	// the prefilter verdict).
	Solver            string `json:"solver,omitempty"`
	AnalysisSteps     int64  `json:"analysis_steps,omitempty"`
	AnalysisStates    int    `json:"analysis_states,omitempty"`
	AnalysisExhausted bool   `json:"analysis_exhausted,omitempty"`

	// Dynamic counters. Instructions is zero for trace replays (the
	// address stream was recorded by an earlier execution).
	Instructions   int64 `json:"instructions,omitempty"`
	Refs           int64 `json:"refs"`
	CachedRefs     int64 `json:"cached_refs"`
	BypassRefs     int64 `json:"bypass_refs"`
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Fetches        int64 `json:"fetches"`
	Writebacks     int64 `json:"writebacks"`
	StoreAllocs    int64 `json:"store_allocs"`
	BypassReads    int64 `json:"bypass_reads"`
	BypassWrites   int64 `json:"bypass_writes"`
	DeadMarks      int64 `json:"dead_marks"`
	DeadDiscards   int64 `json:"dead_discards"`
	SingleUseFills int64 `json:"single_use_fills"`
	Evictions      int64 `json:"evictions"`
	DRAMWords      int64 `json:"dram_words"` // Figure 5's cache<->memory word traffic

	MissRatio        float64 `json:"miss_ratio"`
	DynamicBypassPct float64 `json:"dynamic_bypass_pct"`
	DeadOccupancy    float64 `json:"dead_occupancy,omitempty"` // trace replays only

	// WallNS is how long the unit took; json:"-" keeps the artifact
	// deterministic. Progress streams report it instead.
	WallNS int64 `json:"-"`
}

// NewRecord starts a record for one configuration, deriving the hardware
// columns (and the canonical key) from the cache config.
func NewRecord(benchName, compiler, mode string, cc cache.Config) Record {
	r := Record{
		Bench:     benchName,
		Compiler:  compiler,
		Mode:      mode,
		Sets:      cc.Sets,
		Ways:      cc.Ways,
		LineWords: cc.LineWords,
		Policy:    cc.Policy.String(),
		Dead:      cc.Dead.String(),
		Bypass:    cc.HonorBypass,
	}
	r.SetKey()
	return r
}

// SetKey (re)derives the canonical key from the identity fields. The key
// spells out the dead-marking mode and bypass honoring explicitly because
// experiment streams measure variants (bypass-without-dead-marking) that
// the mode label alone cannot distinguish.
func (r *Record) SetKey() {
	hw := "nobypass"
	if r.Bypass {
		hw = "bypass"
	}
	r.Key = fmt.Sprintf("%s/%s/%s/s%d.w%d.l%d/%s/%s,%s",
		r.Bench, r.Compiler, r.Mode, r.Sets, r.Ways, r.LineWords, r.Policy, r.Dead, hw)
	if r.Solver != "" {
		// Units that differ only in solver measure the same configuration;
		// the suffix keeps their keys (and resume identities) apart.
		r.Key += "/" + r.Solver
	}
}

// SetStats fills the dynamic counters from a run's (or replay's) cache
// statistics. In both cache models Hits+Misses == CachedRefs, so the miss
// ratio here equals the 1-HitRatio() the tables historically printed.
func (r *Record) SetStats(st cache.Stats) {
	r.Refs = st.Refs
	r.CachedRefs = st.CachedRefs
	r.BypassRefs = st.BypassRefs
	r.Hits = st.Hits
	r.Misses = st.Misses
	r.Fetches = st.Fetches
	r.Writebacks = st.Writebacks
	r.StoreAllocs = st.StoreAllocs
	r.BypassReads = st.BypassReads
	r.BypassWrites = st.BypassWrites
	r.DeadMarks = st.DeadMarks
	r.DeadDiscards = st.DeadDiscards
	r.SingleUseFills = st.SingleUseFills
	r.Evictions = st.Evictions
	r.DRAMWords = st.MemTrafficWords(r.LineWords)
	if st.CachedRefs > 0 {
		r.MissRatio = float64(st.Misses) / float64(st.CachedRefs)
	}
	if st.Refs > 0 {
		r.DynamicBypassPct = 100 * float64(st.BypassRefs) / float64(st.Refs)
	}
}

// SetStatic attaches the compiler-side site classification.
func (r *Record) SetStatic(s core.StaticStats, spilledWebs int) {
	r.StaticSites = s.Sites
	r.StaticBypass = s.Bypass
	r.StaticCached = s.Cached
	r.StaticBypassPct = s.PercentBypass()
	r.SpilledWebs = spilledWebs
}

// Fills is the number of cache-line allocations (fetches plus fetch-free
// store allocations) — the denominator of reuse and single-use ratios.
func (r Record) Fills() int64 { return r.Fetches + r.StoreAllocs }
