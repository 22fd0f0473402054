// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus the quantitative claims made in the text:
//
//	E1 (Figure 5)  — per-benchmark static/dynamic unambiguous reference
//	                 percentages and data-cache traffic reduction.
//	E2 (§3.2)      — dead cache occupancy under LRU vs. the 1/r prediction,
//	                 with and without dead marking.
//	E3 (§3.2)      — replacement-policy ablation: LRU/FIFO/Random/MIN ×
//	                 {conventional, +bypass, +bypass+dead}.
//	E4 (§6/[Mil88]) — static unambiguous:ambiguous site ratio vs. Miller's
//	                 1:1..3:1 band.
//	E5 (§1)        — single-use cache fills, conventional vs. unified.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/regalloc"
	"repro/internal/replay"
	"repro/internal/vm"
)

// Compiler selects how scalars are compiled: Optimizing keeps unambiguous
// scalars in registers (our full pipeline); Baseline keeps scalars in frame
// memory, reproducing the reference mix of the era's simpler compilers
// whose output the paper measured.
type Compiler int

// Compiler variants.
const (
	Optimizing Compiler = iota
	Baseline
)

func (c Compiler) String() string {
	if c == Baseline {
		return "baseline"
	}
	return "optimizing"
}

// Workload is one benchmark compiled under both management modes, with the
// unified run's reference trace (the conventional trace is the same
// address stream with the control bits cleared, since the two compilations
// differ only in those bits).
type Workload struct {
	Bench    bench.Benchmark
	Compiler Compiler
	Geometry CacheGeometry // hardware both runs were measured on

	Unified      *core.Compilation
	Conventional *core.Compilation

	UnifiedProg      *isa.Program
	ConventionalProg *isa.Program

	UnifiedRes      *vm.Result // run with the paper's cache
	ConventionalRes *vm.Result // run with conventional cache

	// Trace is the unified-compilation reference trace in the compact
	// streaming encoding (~2 bytes/ref instead of trace.Trace's 24+).
	// Replay-driven experiments consume it through internal/replay.
	Trace *replay.Encoded

	// memo caches replayed configurations of Trace. Several experiments
	// request identical configurations (E3's LRU column is E7's one-word
	// row and E9's off/invalidate modes), and replay is deterministic, so
	// each distinct configuration replays once per workload.
	memo map[string]replayEntry
}

// replayEntry is one memoized replay of a workload's trace. measured
// reports whether the occupancy metrics (TraceStats) were computed too:
// a replayStats hit can be served from either kind, a measureStats hit
// only from a measured one.
type replayEntry struct {
	stats    cache.Stats
	measured bool
	ts       replay.TraceStats
}

// replayKey canonically encodes the cache.Config fields that determine
// replay results (worker count never does — sharded replay is
// bit-identical by construction).
func replayKey(cfg cache.Config) string {
	return fmt.Sprintf("s%d.w%d.l%d.p%d.d%d.b%t.x%d",
		cfg.Sets, cfg.Ways, cfg.LineWords, cfg.Policy, cfg.Dead, cfg.HonorBypass, cfg.Seed)
}

// replayStats replays the workload's trace under cfg, memoized.
func (w *Workload) replayStats(cfg cache.Config) (cache.Stats, error) {
	k := replayKey(cfg)
	if e, ok := w.memo[k]; ok {
		return e.stats, nil
	}
	st, err := replay.Replay(w.Trace, cfg, 0)
	if err != nil {
		return st, err
	}
	if w.memo == nil {
		w.memo = make(map[string]replayEntry)
	}
	w.memo[k] = replayEntry{stats: st}
	return st, nil
}

// measureStats is replayStats with the occupancy metrics of
// replay.Measure; a prior plain replay of the same configuration is
// upgraded in place.
func (w *Workload) measureStats(cfg cache.Config) (replay.TraceStats, error) {
	k := replayKey(cfg)
	if e, ok := w.memo[k]; ok && e.measured {
		return e.ts, nil
	}
	ts, err := replay.Measure(w.Trace, cfg)
	if err != nil {
		return ts, err
	}
	if w.memo == nil {
		w.memo = make(map[string]replayEntry)
	}
	w.memo[k] = replayEntry{stats: ts.Stats, measured: true, ts: ts}
	return ts, nil
}

// replayBatchStats is replayStats for a sweep of configurations over the
// same trace: memo misses are replayed in one shared decoding pass
// (replay.ReplayBatch), which is where experiments that sweep many cache
// shapes spend most of their decode time.
func (w *Workload) replayBatchStats(cfgs []cache.Config) ([]cache.Stats, error) {
	out := make([]cache.Stats, len(cfgs))
	var miss []cache.Config
	var missAt []int
	for i, cfg := range cfgs {
		if e, ok := w.memo[replayKey(cfg)]; ok {
			out[i] = e.stats
		} else {
			miss = append(miss, cfg)
			missAt = append(missAt, i)
		}
	}
	if len(miss) == 0 {
		return out, nil
	}
	sts, err := replay.ReplayBatch(w.Trace, miss)
	if err != nil {
		return nil, err
	}
	if w.memo == nil {
		w.memo = make(map[string]replayEntry)
	}
	for j, st := range sts {
		out[missAt[j]] = st
		w.memo[replayKey(miss[j])] = replayEntry{stats: st}
	}
	return out, nil
}

// measureBatchStats is measureStats for a sweep of configurations, with
// the same one-decoding-pass batching as replayBatchStats.
func (w *Workload) measureBatchStats(cfgs []cache.Config) ([]replay.TraceStats, error) {
	out := make([]replay.TraceStats, len(cfgs))
	var miss []cache.Config
	var missAt []int
	for i, cfg := range cfgs {
		if e, ok := w.memo[replayKey(cfg)]; ok && e.measured {
			out[i] = e.ts
		} else {
			miss = append(miss, cfg)
			missAt = append(missAt, i)
		}
	}
	if len(miss) == 0 {
		return out, nil
	}
	tss, err := replay.MeasureBatch(w.Trace, miss)
	if err != nil {
		return nil, err
	}
	if w.memo == nil {
		w.memo = make(map[string]replayEntry)
	}
	for j, ts := range tss {
		out[missAt[j]] = ts
		w.memo[replayKey(miss[j])] = replayEntry{stats: ts.Stats, measured: true, ts: ts}
	}
	return out, nil
}

// CacheGeometry is the hardware configuration shared by an experiment's
// unified and conventional runs.
type CacheGeometry struct {
	Sets      int
	Ways      int
	LineWords int
	Policy    cache.Policy
}

// PaperGeometry is the evaluation default: a small on-chip data cache with
// one-word lines (§1's assumption), 64 lines, 2-way LRU.
func PaperGeometry() CacheGeometry {
	return CacheGeometry{Sets: 32, Ways: 2, LineWords: 1, Policy: cache.LRU}
}

func (g CacheGeometry) unified() cache.Config {
	return cache.Config{Sets: g.Sets, Ways: g.Ways, LineWords: g.LineWords,
		Policy: g.Policy, Dead: cache.DeadInvalidate, HonorBypass: true, Seed: 1}
}

func (g CacheGeometry) conventional() cache.Config {
	return cache.Config{Sets: g.Sets, Ways: g.Ways, LineWords: g.LineWords,
		Policy: g.Policy, Dead: cache.DeadOff, HonorBypass: false, Seed: 1}
}

// BuildWorkload compiles and runs one benchmark under both modes. All
// compilations and simulations go through the package Artifacts cache, so
// repeated builds of the same configuration are free.
func BuildWorkload(b bench.Benchmark, geom CacheGeometry, cc Compiler) (*Workload, error) {
	w := &Workload{Bench: b, Compiler: cc, Geometry: geom}
	stack := cc == Baseline
	ua, err := Artifacts.Build(b.Source, core.Config{Mode: core.Unified, StackScalars: stack, Check: true})
	if err != nil {
		return nil, fmt.Errorf("%s unified: %w", b.Name, err)
	}
	ca, err := Artifacts.Build(b.Source, core.Config{Mode: core.Conventional, StackScalars: stack, Check: true})
	if err != nil {
		return nil, fmt.Errorf("%s conventional: %w", b.Name, err)
	}
	w.Unified, w.UnifiedProg = ua.Comp, ua.Prog
	w.Conventional, w.ConventionalProg = ca.Comp, ca.Prog
	if w.UnifiedRes, w.Trace, err = Artifacts.RunEncoded(ua, vm.Config{Cache: geom.unified()}); err != nil {
		return nil, fmt.Errorf("%s unified run: %w", b.Name, err)
	}
	if w.ConventionalRes, err = Artifacts.Run(ca, vm.Config{Cache: geom.conventional()}); err != nil {
		return nil, fmt.Errorf("%s conventional run: %w", b.Name, err)
	}
	if w.UnifiedRes.Output != w.ConventionalRes.Output {
		return nil, fmt.Errorf("%s: outputs diverge between modes", b.Name)
	}
	if b.Expected != "" && w.UnifiedRes.Output != b.Expected {
		return nil, fmt.Errorf("%s: output %q, want %q", b.Name, w.UnifiedRes.Output, b.Expected)
	}
	return w, nil
}

// BuildAll builds all six workloads under one compiler variant.
func BuildAll(geom CacheGeometry, cc Compiler) ([]*Workload, error) {
	var out []*Workload
	for _, b := range bench.All() {
		w, err := BuildWorkload(b, geom, cc)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// ---- E1: Figure 5 ----

// Fig5Row is one benchmark's line in the Figure 5 reproduction.
//
// The paper's headline quantity — "percent of data cache reference traffic
// reduction" — is the share of executed references the unified model
// removes from the cache's reference stream, i.e. DynamicBypassPct: those
// references no longer occupy cache bandwidth or displace cached data. The
// DRAM word counts are an additional measurement the paper did not report
// (see EXPERIMENTS.md for the discussion of when bypass increases them).
type Fig5Row struct {
	Name             string
	StaticSites      int
	StaticBypassPct  float64 // % of load/store sites marked unambiguous
	DynamicRefs      int64
	DynamicBypassPct float64 // % of executed refs removed from the cache stream
	ConvTraffic      int64   // cache<->memory DRAM words, conventional
	UnifTraffic      int64   // cache<->memory DRAM words, unified
	DRAMDeltaPct     float64 // DRAM word change (negative = unified moves fewer)
	ConvMissRatio    float64
	UnifMissRatio    float64
}

// Fig5Table is the reproduction of Figure 5.
type Fig5Table struct {
	Geometry CacheGeometry
	Compiler Compiler
	Rows     []Fig5Row
}

// Fig5 computes the Figure 5 table from prebuilt workloads, by way of the
// E1 record stream (unisweep and unibench -json emit the same records).
func Fig5(ws []*Workload, geom CacheGeometry) Fig5Table {
	t := Fig5FromRecords(RecordsWorkloads(ws))
	if len(t.Rows) == 0 {
		t.Geometry = geom
	}
	return t
}

// String renders the table in the paper's style. The "reduction" column is
// the paper's metric: percent of data-cache reference traffic eliminated
// (static = classification of sites, dynamic = executed references).
func (t Fig5Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5: Percent of Data Cache Reference Traffic Reduction (%s compiler)\n", t.Compiler)
	fmt.Fprintf(&sb, "cache: %d lines x %d words, %d-way, %s\n\n",
		t.Geometry.Sets*t.Geometry.Ways, t.Geometry.LineWords, t.Geometry.Ways, t.Geometry.Policy)
	fmt.Fprintf(&sb, "%-8s %8s %9s %12s %10s %12s %12s %10s\n",
		"bench", "sites", "static%", "dyn refs", "dynamic%", "conv DRAM", "unif DRAM", "DRAM +/-")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-8s %8d %8.1f%% %12d %9.1f%% %12d %12d %+9.1f%%\n",
			r.Name, r.StaticSites, r.StaticBypassPct, r.DynamicRefs, r.DynamicBypassPct,
			r.ConvTraffic, r.UnifTraffic, r.DRAMDeltaPct)
	}
	return sb.String()
}

// ---- E2: dead occupancy under LRU ----

// DeadLRURow is one (benchmark, cache-size) measurement.
type DeadLRURow struct {
	Name          string
	Lines         int
	MeanReuse     float64 // r: cached references per fill
	PredictedDead float64 // 1/r (§3.2's back-of-envelope)
	ConvDeadOcc   float64 // measured dead occupancy, conventional LRU
	UnifDeadOcc   float64 // with bypass + dead marking
	ConvMissRatio float64
	UnifMissRatio float64
}

// DeadLRUTable is the E2 result.
type DeadLRUTable struct {
	Rows []DeadLRURow
}

// DeadLRU measures dead occupancy on fully-associative LRU caches of the
// given sizes, comparing conventional hardware against the unified model,
// and the paper's 1/r waste prediction. The table renders from the E2
// record stream.
func DeadLRU(ws []*Workload, sizes []int) (DeadLRUTable, error) {
	recs, err := RecordsDeadLRU(ws, sizes)
	if err != nil {
		return DeadLRUTable{}, err
	}
	return DeadLRUFromRecords(recs), nil
}

// String renders the E2 table.
func (t DeadLRUTable) String() string {
	var sb strings.Builder
	sb.WriteString("E2: dead cache occupancy under fully-associative LRU (SS3.2)\n\n")
	fmt.Fprintf(&sb, "%-8s %6s %8s %10s %10s %10s %10s %10s\n",
		"bench", "lines", "reuse r", "pred 1/r", "conv dead", "unif dead", "conv miss", "unif miss")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-8s %6d %8.1f %9.1f%% %9.1f%% %9.1f%% %9.2f%% %9.2f%%\n",
			r.Name, r.Lines, r.MeanReuse, 100*r.PredictedDead,
			100*r.ConvDeadOcc, 100*r.UnifDeadOcc,
			100*r.ConvMissRatio, 100*r.UnifMissRatio)
	}
	return sb.String()
}

// ---- E3: replacement-policy ablation ----

// PolicyRow is one (benchmark, policy) measurement across the three
// management variants.
type PolicyRow struct {
	Name   string
	Policy cache.Policy

	ConvMissRatio   float64 // conventional: no bypass, no dead marking
	BypassMissRatio float64 // bypass honored, dead marking off
	FullMissRatio   float64 // bypass + dead marking (the unified model)

	ConvTraffic   int64
	BypassTraffic int64
	FullTraffic   int64
}

// PolicyTable is the E3 result.
type PolicyTable struct {
	Geometry CacheGeometry
	Rows     []PolicyRow
}

// Policies runs the policy ablation on the recorded traces; the table
// renders from the E3 record stream.
func Policies(ws []*Workload, geom CacheGeometry) (PolicyTable, error) {
	recs, err := RecordsPolicies(ws, geom)
	if err != nil {
		return PolicyTable{Geometry: geom}, err
	}
	t := PoliciesFromRecords(recs)
	if len(t.Rows) == 0 {
		t.Geometry = geom
	}
	return t, nil
}

// String renders the E3 table.
func (t PolicyTable) String() string {
	var sb strings.Builder
	sb.WriteString("E3: replacement policy x management ablation (SS3.2)\n")
	fmt.Fprintf(&sb, "cache: %d lines x %d words, %d-way\n\n",
		t.Geometry.Sets*t.Geometry.Ways, t.Geometry.LineWords, t.Geometry.Ways)
	fmt.Fprintf(&sb, "%-8s %-7s %10s %10s %10s %12s %12s %12s\n",
		"bench", "policy", "conv miss", "byp miss", "full miss",
		"conv words", "byp words", "full words")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-8s %-7s %9.2f%% %9.2f%% %9.2f%% %12d %12d %12d\n",
			r.Name, r.Policy, 100*r.ConvMissRatio, 100*r.BypassMissRatio,
			100*r.FullMissRatio, r.ConvTraffic, r.BypassTraffic, r.FullTraffic)
	}
	return sb.String()
}

// ---- E4: Miller's static ratio ----

// MillerRow is one benchmark's static unambiguous:ambiguous site ratio.
type MillerRow struct {
	Name        string
	Unambiguous int
	AmbiguousN  int
	Ratio       float64
}

// MillerTable is the E4 result.
type MillerTable struct {
	Rows []MillerRow
}

// Miller computes the static site ratios from the unified compilations
// (rendered from the E1 record stream's unified records).
func Miller(ws []*Workload) MillerTable {
	return MillerFromRecords(RecordsWorkloads(ws))
}

// String renders the E4 table.
func (t MillerTable) String() string {
	var sb strings.Builder
	sb.WriteString("E4: static unambiguous:ambiguous reference sites ([Mil88] reports 1:1 to 3:1)\n\n")
	fmt.Fprintf(&sb, "%-8s %12s %10s %8s\n", "bench", "unambiguous", "ambiguous", "ratio")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-8s %12d %10d %7.1f:1\n", r.Name, r.Unambiguous, r.AmbiguousN, r.Ratio)
	}
	return sb.String()
}

// ---- E5: single-use fills ----

// SingleUseRow is one benchmark's single-use-fill fractions.
type SingleUseRow struct {
	Name       string
	ConvFills  int64
	ConvSingle int64
	ConvPct    float64
	UnifFills  int64
	UnifSingle int64
	UnifPct    float64
}

// SingleUseTable is the E5 result.
type SingleUseTable struct {
	Rows []SingleUseRow
}

// SingleUse measures the fraction of cache fills never re-referenced
// before leaving the cache, rendered from the E1 record stream.
func SingleUse(ws []*Workload) SingleUseTable {
	return SingleUseFromRecords(RecordsWorkloads(ws))
}

// String renders the E5 table.
func (t SingleUseTable) String() string {
	var sb strings.Builder
	sb.WriteString("E5: single-use cache fills (cache pollution, SS1)\n\n")
	fmt.Fprintf(&sb, "%-8s %12s %12s %8s %12s %12s %8s\n",
		"bench", "conv fills", "single", "pct", "unif fills", "single", "pct")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-8s %12d %12d %7.1f%% %12d %12d %7.1f%%\n",
			r.Name, r.ConvFills, r.ConvSingle, r.ConvPct, r.UnifFills, r.UnifSingle, r.UnifPct)
	}
	return sb.String()
}

// ---- E6: register promotion ablation ----

// hotLoopSrc is the microworkload whose shape §4.2's "series of
// operations" phrasing describes: unambiguous globals updated in a
// call-free loop.
const hotLoopSrc = `
int accum;
int steps;
void main() {
    int i;
    for (i = 0; i < 10000; i++) {
        accum = accum + i;
        steps = steps + 1;
    }
    print(accum);
    print(steps);
}
`

// PromotionRow compares DRAM traffic across management/promotion variants
// for one workload (optimizing compiler).
type PromotionRow struct {
	Name         string
	Conventional int64 // DRAM words, conventional management
	Unified      int64 // DRAM words, naive unified (per-reference bypass)
	Promoted     int64 // DRAM words, unified + register promotion
	Full         int64 // DRAM words, unified + inlining + optimizer + promotion
}

// PromotionTable is the E6 result.
type PromotionTable struct {
	Geometry CacheGeometry
	Rows     []PromotionRow
}

// Promotion runs E6: it quantifies how much of the naive unified model's
// DRAM regression register promotion recovers, per workload. The table
// renders from the E6 record stream; all variants are compiled and run
// through the Artifacts cache.
func Promotion(geom CacheGeometry) (PromotionTable, error) {
	recs, err := RecordsPromotion(geom)
	if err != nil {
		return PromotionTable{Geometry: geom}, err
	}
	t := PromotionFromRecords(recs)
	if len(t.Rows) == 0 {
		t.Geometry = geom
	}
	return t, nil
}

// String renders the E6 table.
func (t PromotionTable) String() string {
	var sb strings.Builder
	sb.WriteString("E6: register promotion of unambiguous globals (DRAM words, optimizing compiler)\n\n")
	fmt.Fprintf(&sb, "%-8s %14s %14s %14s %16s %12s\n",
		"bench", "conventional", "unified", "unif+promote", "inl+opt+promote", "recovered")
	for _, r := range t.Rows {
		recovered := "-"
		if r.Unified > r.Conventional && r.Unified > r.Promoted {
			frac := 100 * float64(r.Unified-r.Promoted) / float64(r.Unified-r.Conventional)
			recovered = fmt.Sprintf("%.0f%%", frac)
		}
		fmt.Fprintf(&sb, "%-8s %14d %14d %14d %16d %12s\n",
			r.Name, r.Conventional, r.Unified, r.Promoted, r.Full, recovered)
	}
	return sb.String()
}

// ---- E7: line-size sensitivity ----

// LineSizeRow is one (benchmark, line-size) measurement from trace replay.
type LineSizeRow struct {
	Name        string
	LineWords   int
	ConvTraffic int64
	UnifTraffic int64
	ConvMiss    float64
	UnifMiss    float64
}

// LineSizeTable is the E7 result.
type LineSizeTable struct {
	Rows []LineSizeRow
}

// LineSize replays each workload's trace with line sizes 1..8 words,
// testing the paper's assertion that small lines (size one) suit the data
// cache and that the unified model's dead-discard benefit is strongest
// there (multi-word dirty lines can only be demoted, not discarded).
func LineSize(ws []*Workload, geom CacheGeometry) (LineSizeTable, error) {
	var t LineSizeTable
	lineWords := []int{1, 2, 4, 8}
	for _, w := range ws {
		// One batched pass per workload: the conv/unif pair for every
		// line size shares a single trace decode. The conv view needs
		// no flag-stripped copy: under DeadOff with HonorBypass false
		// the replay engine never consults the hint bits.
		var cfgs []cache.Config
		for _, lw := range lineWords {
			conv := cache.Config{Sets: geom.Sets, Ways: geom.Ways, LineWords: lw,
				Policy: geom.Policy, Dead: cache.DeadOff, HonorBypass: false, Seed: 1}
			unif := conv
			unif.Dead = cache.DeadInvalidate
			unif.HonorBypass = true
			cfgs = append(cfgs, conv, unif)
		}
		sts, err := w.replayBatchStats(cfgs)
		if err != nil {
			return t, err
		}
		for i, lw := range lineWords {
			cs, us := sts[2*i], sts[2*i+1]
			t.Rows = append(t.Rows, LineSizeRow{
				Name:        w.Bench.Name,
				LineWords:   lw,
				ConvTraffic: cs.MemTrafficWords(lw),
				UnifTraffic: us.MemTrafficWords(lw),
				ConvMiss:    1 - cs.HitRatio(),
				UnifMiss:    1 - us.HitRatio(),
			})
		}
	}
	return t, nil
}

// String renders the E7 table.
func (t LineSizeTable) String() string {
	var sb strings.Builder
	sb.WriteString("E7: line-size sensitivity (trace replay; the paper assumes 1-word lines)\n\n")
	fmt.Fprintf(&sb, "%-8s %6s %12s %12s %10s %10s\n",
		"bench", "line", "conv words", "unif words", "conv miss", "unif miss")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-8s %6d %12d %12d %9.2f%% %9.2f%%\n",
			r.Name, r.LineWords, r.ConvTraffic, r.UnifTraffic,
			100*r.ConvMiss, 100*r.UnifMiss)
	}
	return sb.String()
}

// ---- E8: register pressure ----

// RegPressureRow is one (benchmark, palette-size) measurement.
type RegPressureRow struct {
	Name        string
	Registers   int // allocatable registers
	SpilledWebs int
	ConvTraffic int64
	UnifTraffic int64
}

// RegPressureTable is the E8 result.
type RegPressureTable struct {
	Geometry CacheGeometry
	Rows     []RegPressureRow
}

// RegPressure recompiles each benchmark with shrinking register palettes
// (half caller-saved, half callee-saved) and measures the spill traffic
// interaction: more spills mean more AmSp_STORE/UmAm_LOAD pairs, which is
// where dead marking pays (§4.2).
func RegPressure(geom CacheGeometry) (RegPressureTable, error) {
	t := RegPressureTable{Geometry: geom}
	palettes := []regalloc.Target{
		{CallerSaved: []int{8, 9}, CalleeSaved: []int{16, 17}},
		{CallerSaved: []int{8, 9, 10, 11}, CalleeSaved: []int{16, 17, 18, 19}},
		{CallerSaved: []int{8, 9, 10, 11, 12, 13, 14, 15},
			CalleeSaved: []int{16, 17, 18, 19, 20, 21, 22, 23}},
	}
	for _, b := range bench.All() {
		for _, tgt := range palettes {
			row := RegPressureRow{Name: b.Name, Registers: tgt.Colors()}
			var outs [2]string
			for vi, mode := range []core.Mode{core.Conventional, core.Unified} {
				art, err := Artifacts.Build(b.Source, core.Config{Mode: mode, Target: tgt, Check: true})
				if err != nil {
					return t, fmt.Errorf("%s/%d: %w", b.Name, tgt.Colors(), err)
				}
				mcfg := geom.conventional()
				if mode == core.Unified {
					mcfg = geom.unified()
				}
				res, err := Artifacts.Run(art, vm.Config{Cache: mcfg})
				if err != nil {
					return t, err
				}
				outs[vi] = res.Output
				words := res.CacheStats.MemTrafficWords(geom.LineWords)
				if mode == core.Conventional {
					row.ConvTraffic = words
				} else {
					row.UnifTraffic = words
					row.SpilledWebs += compSpills(art.Comp)
				}
			}
			if outs[0] != outs[1] {
				return t, fmt.Errorf("%s/%d: outputs diverge", b.Name, tgt.Colors())
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// String renders the E8 table.
func (t RegPressureTable) String() string {
	var sb strings.Builder
	sb.WriteString("E8: register-file size vs spill traffic (optimizing compiler)\n\n")
	fmt.Fprintf(&sb, "%-8s %6s %8s %12s %12s\n",
		"bench", "regs", "spills", "conv words", "unif words")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-8s %6d %8d %12d %12d\n",
			r.Name, r.Registers, r.SpilledWebs, r.ConvTraffic, r.UnifTraffic)
	}
	return sb.String()
}

// ---- E9: dead-marking mode ----

// DeadModeRow compares the two hardware realizations of §3.2 (mark-empty
// vs make-least-recently-used) on one workload.
type DeadModeRow struct {
	Name              string
	OffTraffic        int64
	InvalidateTraffic int64
	DemoteTraffic     int64
	OffMiss           float64
	InvalidateMiss    float64
	DemoteMiss        float64
}

// DeadModeTable is the E9 result.
type DeadModeTable struct {
	Geometry CacheGeometry
	Rows     []DeadModeRow
}

// DeadMode replays each trace with dead marking off / invalidate / demote
// (bypass honored in all three, isolating the dead-marking effect).
func DeadMode(ws []*Workload, geom CacheGeometry) (DeadModeTable, error) {
	t := DeadModeTable{Geometry: geom}
	for _, w := range ws {
		base := cache.Config{Sets: geom.Sets, Ways: geom.Ways, LineWords: geom.LineWords,
			Policy: geom.Policy, HonorBypass: true, Seed: 1}
		row := DeadModeRow{Name: w.Bench.Name}
		modes := []cache.DeadMode{cache.DeadOff, cache.DeadInvalidate, cache.DeadDemote}
		cfgs := make([]cache.Config, len(modes))
		for i, dm := range modes {
			cfgs[i] = base
			cfgs[i].Dead = dm
		}
		sts, err := w.replayBatchStats(cfgs)
		if err != nil {
			return t, err
		}
		for i, dm := range modes {
			words := sts[i].MemTrafficWords(geom.LineWords)
			miss := 1 - sts[i].HitRatio()
			switch dm {
			case cache.DeadOff:
				row.OffTraffic, row.OffMiss = words, miss
			case cache.DeadInvalidate:
				row.InvalidateTraffic, row.InvalidateMiss = words, miss
			case cache.DeadDemote:
				row.DemoteTraffic, row.DemoteMiss = words, miss
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// String renders the E9 table.
func (t DeadModeTable) String() string {
	var sb strings.Builder
	sb.WriteString("E9: dead-marking realization, mark-empty vs demote-to-victim (SS3.2)\n\n")
	fmt.Fprintf(&sb, "%-8s %12s %12s %12s %9s %9s %9s\n",
		"bench", "off words", "inval words", "demote words", "off", "inval", "demote")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-8s %12d %12d %12d %8.2f%% %8.2f%% %8.2f%%\n",
			r.Name, r.OffTraffic, r.InvalidateTraffic, r.DemoteTraffic,
			100*r.OffMiss, 100*r.InvalidateMiss, 100*r.DemoteMiss)
	}
	return sb.String()
}

// ---- E10: instruction cache ----

// ICacheRow reports the instruction stream's cache behavior for one
// benchmark (instructions are the paper's third reference class, always
// routed through the cache).
type ICacheRow struct {
	Name      string
	Lines     int
	LineWords int
	Fetches   int64
	MissRatio float64
}

// ICacheTable is the E10 result.
type ICacheTable struct {
	Rows []ICacheRow
}

// ICache re-runs each benchmark with instruction caches of several sizes
// (4-word lines, 2-way LRU) and reports miss ratios: instruction streams
// are overwhelmingly cache-friendly, which is why the paper spends its
// compile-time machinery on data references.
func ICache(geom CacheGeometry) (ICacheTable, error) {
	var t ICacheTable
	for _, b := range bench.All() {
		art, err := Artifacts.Build(b.Source, core.Config{Mode: core.Unified, Check: true})
		if err != nil {
			return t, err
		}
		for _, sets := range []int{4, 16, 64} {
			icfg := cache.Config{Sets: sets, Ways: 2, LineWords: 4,
				Policy: cache.LRU, Dead: cache.DeadOff, Seed: 1}
			res, err := Artifacts.Run(art, vm.Config{Cache: geom.unified(), ICache: &icfg})
			if err != nil {
				return t, err
			}
			ist := res.ICacheStats
			row := ICacheRow{Name: b.Name, Lines: sets * 2, LineWords: 4, Fetches: ist.Fetches}
			if ist.CachedRefs > 0 {
				row.MissRatio = float64(ist.Misses) / float64(ist.CachedRefs)
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// String renders the E10 table.
func (t ICacheTable) String() string {
	var sb strings.Builder
	sb.WriteString("E10: instruction-cache behavior (instructions always go through cache, SS4.2)\n\n")
	fmt.Fprintf(&sb, "%-8s %6s %6s %12s %10s\n", "bench", "lines", "words", "fetches", "miss")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-8s %6d %6d %12d %9.4f%%\n",
			r.Name, r.Lines, r.LineWords, r.Fetches, 100*r.MissRatio)
	}
	return sb.String()
}
