package experiments

import (
	"fmt"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/vm"
)

// Artifacts is the package-wide compile/run cache. Every experiment draws
// on it, so a benchmark compiled for E1 is never recompiled for E6, and a
// cache configuration simulated once is never simulated again — this is
// what makes `unibench -experiment all` cheap.
var Artifacts = artifact.New()

// Experiment tags carried by the Record streams each producer emits.
const (
	ExpFig5      = "fig5"
	ExpDeadLRU   = "deadlru"
	ExpPolicies  = "policies"
	ExpPromotion = "promotion"
)

func parseCompiler(s string) Compiler {
	if s == Baseline.String() {
		return Baseline
	}
	return Optimizing
}

// geometryOf recovers the hardware columns of a record.
func geometryOf(r sweep.Record) CacheGeometry {
	pol, _ := cache.ParsePolicy(r.Policy)
	return CacheGeometry{Sets: r.Sets, Ways: r.Ways, LineWords: r.LineWords, Policy: pol}
}

// missRatio reproduces the 1-HitRatio() float path the tables have always
// printed (bit-identical golden output matters more than algebraic
// equivalence with Record.MissRatio).
func missRatio(r sweep.Record) float64 {
	hit := 0.0
	if r.CachedRefs > 0 {
		hit = float64(r.Hits) / float64(r.CachedRefs)
	}
	return 1 - hit
}

func compSpills(c *core.Compilation) int {
	n := 0
	for _, a := range c.Allocs {
		n += a.SpilledWebs
	}
	return n
}

// RecordsWorkloads converts prebuilt workloads into the E1 record stream:
// one conventional and one unified record per benchmark, carrying the
// site classification of its mode (StaticStats.Under) and its run's
// counters. Fig5, Miller and SingleUse all render from this stream.
func RecordsWorkloads(ws []*Workload) []sweep.Record {
	var out []sweep.Record
	for _, w := range ws {
		geom := w.Geometry
		conv := sweep.NewRecord(w.Bench.Name, w.Compiler.String(), sweep.ModeConventional, geom.hardware(core.Conventional))
		conv.Experiment = ExpFig5
		conv.SetStatic(w.Unified.Comp.Stats.Under(core.Conventional), compSpills(w.Unified.Comp))
		conv.SetStats(w.ConventionalRes.CacheStats)
		conv.Instructions = w.ConventionalRes.Instructions

		unif := sweep.NewRecord(w.Bench.Name, w.Compiler.String(), sweep.ModeUnified, geom.hardware(core.Unified))
		unif.Experiment = ExpFig5
		unif.SetStatic(w.Unified.Comp.Stats, compSpills(w.Unified.Comp))
		unif.SetStats(w.UnifiedRes.CacheStats)
		unif.Instructions = w.UnifiedRes.Instructions

		out = append(out, conv, unif)
	}
	return out
}

// workloadPairs walks a record stream in first-seen bench order, handing
// each benchmark's (conventional, unified) pair to fn once both are known.
func workloadPairs(recs []sweep.Record, fn func(conv, unif sweep.Record)) {
	type pair struct {
		conv, unif *sweep.Record
		done       bool
	}
	byBench := make(map[string]*pair)
	var order []string
	for i := range recs {
		r := &recs[i]
		p := byBench[r.Bench]
		if p == nil {
			p = &pair{}
			byBench[r.Bench] = p
			order = append(order, r.Bench)
		}
		if r.Mode == sweep.ModeUnified {
			p.unif = r
		} else {
			p.conv = r
		}
	}
	for _, name := range order {
		p := byBench[name]
		if p.conv != nil && p.unif != nil && !p.done {
			p.done = true
			fn(*p.conv, *p.unif)
		}
	}
}

// Fig5FromRecords renders the Figure 5 table from the E1 record stream.
func Fig5FromRecords(recs []sweep.Record) Fig5Table {
	var t Fig5Table
	if len(recs) > 0 {
		t.Geometry = geometryOf(recs[0])
		t.Compiler = parseCompiler(recs[0].Compiler)
	}
	workloadPairs(recs, func(conv, unif sweep.Record) {
		row := Fig5Row{
			Name:             unif.Bench,
			StaticSites:      unif.StaticSites,
			StaticBypassPct:  unif.StaticBypassPct,
			DynamicRefs:      unif.Refs,
			DynamicBypassPct: unif.DynamicBypassPct,
			ConvTraffic:      conv.DRAMWords,
			UnifTraffic:      unif.DRAMWords,
			ConvMissRatio:    missRatio(conv),
			UnifMissRatio:    missRatio(unif),
		}
		if row.ConvTraffic > 0 {
			row.DRAMDeltaPct = 100 * float64(row.UnifTraffic-row.ConvTraffic) / float64(row.ConvTraffic)
		}
		t.Rows = append(t.Rows, row)
	})
	return t
}

// MillerFromRecords renders the E4 static-ratio table from the unified
// records of the E1 stream.
func MillerFromRecords(recs []sweep.Record) MillerTable {
	var t MillerTable
	for _, r := range recs {
		if r.Mode != sweep.ModeUnified {
			continue
		}
		row := MillerRow{Name: r.Bench, Unambiguous: r.StaticBypass, AmbiguousN: r.StaticCached}
		if row.AmbiguousN > 0 {
			row.Ratio = float64(row.Unambiguous) / float64(row.AmbiguousN)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// SingleUseFromRecords renders the E5 single-use-fill table from the E1
// record stream.
func SingleUseFromRecords(recs []sweep.Record) SingleUseTable {
	var t SingleUseTable
	workloadPairs(recs, func(conv, unif sweep.Record) {
		row := SingleUseRow{
			Name:       unif.Bench,
			ConvFills:  conv.Fills(),
			ConvSingle: conv.SingleUseFills,
			UnifFills:  unif.Fills(),
			UnifSingle: unif.SingleUseFills,
		}
		if row.ConvFills > 0 {
			row.ConvPct = 100 * float64(row.ConvSingle) / float64(row.ConvFills)
		}
		if row.UnifFills > 0 {
			row.UnifPct = 100 * float64(row.UnifSingle) / float64(row.UnifFills)
		}
		t.Rows = append(t.Rows, row)
	})
	return t
}

// measuredRecords measures w's unified trace under each configuration
// through Artifacts.MeasureBatch, one batched decoding pass, and emits
// one exp record per configuration, with its dead occupancy: the
// conventional mode for hardware that ignores the bypass bits, the
// unified mode otherwise. Conventional mode is the unified program on
// such hardware (DESIGN.md §9), so no trace is stripped: the engine
// never consults bits a configuration disables.
func measuredRecords(w *Workload, exp string, cfgs []cache.Config) ([]sweep.Record, error) {
	vcfgs := make([]vm.Config, len(cfgs))
	for i, cfg := range cfgs {
		vcfgs[i] = vm.Config{Cache: cfg}
	}
	tss, err := Artifacts.MeasureBatch(w.Unified, vcfgs)
	if err != nil {
		return nil, err
	}
	out := make([]sweep.Record, len(cfgs))
	for i, cfg := range cfgs {
		mode := sweep.ModeUnified
		if !cfg.HonorBypass {
			mode = sweep.ModeConventional
		}
		out[i] = sweep.NewRecord(w.Bench.Name, w.Compiler.String(), mode, cfg)
		out[i].Experiment = exp
		out[i].SetStats(tss[i].Stats)
		out[i].DeadOccupancy = tss[i].DeadOccupancy
	}
	return out, nil
}

// RecordsDeadLRU replays each workload's trace on fully-associative LRU
// caches of the given sizes and emits the E2 record stream: a conventional
// and a unified record per (benchmark, size), each with its measured dead
// occupancy.
func RecordsDeadLRU(ws []*Workload, sizes []int) ([]sweep.Record, error) {
	var out []sweep.Record
	for _, w := range ws {
		var cfgs []cache.Config
		for _, lines := range sizes {
			conv := cache.Config{Sets: 1, Ways: lines, LineWords: 1,
				Policy: cache.LRU, Dead: cache.DeadOff, HonorBypass: false, Seed: 1}
			unif := conv
			unif.Dead = cache.DeadInvalidate
			unif.HonorBypass = true
			cfgs = append(cfgs, conv, unif)
		}
		recs, err := measuredRecords(w, ExpDeadLRU, cfgs)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// DeadLRUFromRecords renders the E2 table from its record stream.
func DeadLRUFromRecords(recs []sweep.Record) DeadLRUTable {
	var t DeadLRUTable
	type key struct {
		bench string
		lines int
	}
	type pair struct{ conv, unif *sweep.Record }
	byKey := make(map[key]*pair)
	var order []key
	for i := range recs {
		r := &recs[i]
		k := key{r.Bench, r.Ways} // fully associative: Sets=1, Ways=lines
		p := byKey[k]
		if p == nil {
			p = &pair{}
			byKey[k] = p
			order = append(order, k)
		}
		if r.Bypass {
			p.unif = r
		} else {
			p.conv = r
		}
	}
	for _, k := range order {
		p := byKey[k]
		if p.conv == nil || p.unif == nil {
			continue
		}
		row := DeadLRURow{
			Name:          k.bench,
			Lines:         k.lines,
			ConvDeadOcc:   p.conv.DeadOccupancy,
			UnifDeadOcc:   p.unif.DeadOccupancy,
			ConvMissRatio: missRatio(*p.conv),
			UnifMissRatio: missRatio(*p.unif),
		}
		if fills := p.conv.Fills(); fills > 0 {
			row.MeanReuse = float64(p.conv.CachedRefs) / float64(fills)
			row.PredictedDead = 1 / row.MeanReuse
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// RecordsPolicies replays each workload's trace across the four
// replacement policies and the three management variants, emitting three
// records per (benchmark, policy): conventional hardware (hint bits
// ignored), bypass without dead marking, and the full unified model. The dead-mode
// and bypass fields in the key tell the variants apart.
func RecordsPolicies(ws []*Workload, geom CacheGeometry) ([]sweep.Record, error) {
	var out []sweep.Record
	pols := []cache.Policy{cache.LRU, cache.FIFO, cache.Random, cache.MIN}
	for _, w := range ws {
		var cfgs []cache.Config
		for _, pol := range pols {
			base := cache.Config{Sets: geom.Sets, Ways: geom.Ways, LineWords: geom.LineWords,
				Policy: pol, Seed: 1}

			conv := base
			conv.Dead = cache.DeadOff
			conv.HonorBypass = false

			byp := base
			byp.Dead = cache.DeadOff
			byp.HonorBypass = true

			full := base
			full.Dead = cache.DeadInvalidate
			full.HonorBypass = true

			cfgs = append(cfgs, conv, byp, full)
		}
		recs, err := measuredRecords(w, ExpPolicies, cfgs)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// PoliciesFromRecords renders the E3 ablation table from its record
// stream, matching the three variants of each (benchmark, policy) cell by
// their dead-mode and bypass fields.
func PoliciesFromRecords(recs []sweep.Record) PolicyTable {
	var t PolicyTable
	if len(recs) > 0 {
		t.Geometry = geometryOf(recs[0])
	}
	type key struct {
		bench, policy string
	}
	rows := make(map[key]*PolicyRow)
	var order []key
	for _, r := range recs {
		k := key{r.Bench, r.Policy}
		row := rows[k]
		if row == nil {
			pol, _ := cache.ParsePolicy(r.Policy)
			row = &PolicyRow{Name: r.Bench, Policy: pol}
			rows[k] = row
			order = append(order, k)
		}
		switch {
		case !r.Bypass:
			row.ConvMissRatio = missRatio(r)
			row.ConvTraffic = r.DRAMWords
		case r.Dead == cache.DeadOff.String():
			row.BypassMissRatio = missRatio(r)
			row.BypassTraffic = r.DRAMWords
		default:
			row.FullMissRatio = missRatio(r)
			row.FullTraffic = r.DRAMWords
		}
	}
	for _, k := range order {
		t.Rows = append(t.Rows, *rows[k])
	}
	return t
}

// Promotion variant compiler labels (the E6 record stream tells its four
// variants apart by label and mode: the naive label is in both modes).
const (
	promoNaive = "optimizing"
	promoOnly  = "optimizing+promote"
	promoFull  = "optimizing+promote+inline+opt"
)

// promotionVariants are E6's compilations and the modes measured on each.
var promotionVariants = []struct {
	label string
	cfg   core.Config
	modes []core.Mode
}{
	{promoNaive, core.Config{Mode: core.Unified, Check: true}, []core.Mode{core.Conventional, core.Unified}},
	{promoOnly, core.Config{Mode: core.Unified, PromoteGlobals: true, Check: true}, []core.Mode{core.Unified}},
	{promoFull, core.Config{Mode: core.Unified, PromoteGlobals: true, Inline: true, Optimize: true, Check: true}, []core.Mode{core.Unified}},
}

// RecordsPromotion runs E6 through the artifact cache and emits four
// records per workload: conventional management, naive unified
// (per-reference bypass), unified plus register promotion, and unified
// plus the whole optimizer pipeline.
func RecordsPromotion(geom CacheGeometry) ([]sweep.Record, error) {
	workloads := append([]bench.Benchmark{{Name: "hotloop", Source: hotLoopSrc}}, bench.All()...)
	var out []sweep.Record
	for _, b := range workloads {
		var output string
		for i, v := range promotionVariants {
			art, err := Artifacts.Build(b.Source, v.cfg)
			if err != nil {
				return nil, fmt.Errorf("%s variant %d: %w", b.Name, i, err)
			}
			cfgs := make([]vm.Config, len(v.modes))
			for k, mode := range v.modes {
				cfgs[k] = vm.Config{Cache: geom.hardware(mode)}
			}
			runs, err := Artifacts.RunBatch(art, cfgs)
			if err != nil {
				return nil, fmt.Errorf("%s variant %d: %w", b.Name, i, err)
			}
			if i == 0 {
				output = runs[0].Output
			} else if runs[0].Output != output {
				return nil, fmt.Errorf("%s: outputs diverge across variants", b.Name)
			}
			for k, mode := range v.modes {
				r := sweep.NewRecord(b.Name, v.label, mode.String(), cfgs[k].Cache)
				r.Experiment = ExpPromotion
				r.SetStatic(art.Comp.Stats.Under(mode), compSpills(art.Comp))
				r.SetStats(runs[k].CacheStats)
				r.Instructions = runs[k].Instructions
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// PromotionFromRecords renders the E6 table from its record stream.
func PromotionFromRecords(recs []sweep.Record) PromotionTable {
	var t PromotionTable
	if len(recs) > 0 {
		t.Geometry = geometryOf(recs[0])
	}
	rows := make(map[string]*PromotionRow)
	var order []string
	for _, r := range recs {
		row := rows[r.Bench]
		if row == nil {
			row = &PromotionRow{Name: r.Bench}
			rows[r.Bench] = row
			order = append(order, r.Bench)
		}
		switch {
		case r.Mode == sweep.ModeConventional:
			row.Conventional = r.DRAMWords
		case r.Compiler == promoNaive:
			row.Unified = r.DRAMWords
		case r.Compiler == promoOnly:
			row.Promoted = r.DRAMWords
		default:
			row.Full = r.DRAMWords
		}
	}
	for _, name := range order {
		t.Rows = append(t.Rows, *rows[name])
	}
	return t
}
