package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/sweep"
)

// ExpPrecision tags the E11 record stream.
const ExpPrecision = "precision"

// precisionGeometries are the hardware points the precision table sweeps:
// the paper's cache, a direct-mapped cache small enough for eviction
// proofs, a tiny associative cache, and a FIFO cache where the must half
// is off entirely and every always-hit belongs to the exact pass.
func precisionGeometries() []CacheGeometry {
	return []CacheGeometry{
		{Sets: 32, Ways: 2, LineWords: 1, Policy: cache.LRU},
		{Sets: 8, Ways: 1, LineWords: 1, Policy: cache.LRU},
		{Sets: 4, Ways: 2, LineWords: 1, Policy: cache.LRU},
		{Sets: 32, Ways: 2, LineWords: 1, Policy: cache.FIFO},
	}
}

// RecordsPrecision classifies every benchmark's reference sites under both
// management modes and each precision geometry, using the baseline
// compiler (scalars in frame memory, the site mix the paper measured).
// Purely static: no simulation runs.
func RecordsPrecision() ([]sweep.Record, error) {
	var out []sweep.Record
	for _, g := range precisionGeometries() {
		for _, b := range bench.All() {
			for _, mode := range []core.Mode{core.Conventional, core.Unified} {
				ccfg := g.hardware(mode)
				art, err := Artifacts.Build(b.Source, core.Config{Mode: mode, StackScalars: true, Check: true})
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", b.Name, mode, err)
				}
				rep, err := exact.Analyze(art.Comp.Prog, ccfg, check.Options{Unified: mode == core.Unified})
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", b.Name, mode, err)
				}
				r := sweep.NewRecord(b.Name, Baseline.String(), mode.String(), ccfg)
				r.Experiment = ExpPrecision
				r.StaticSites = rep.Total
				r.StaticBypass = rep.Bypassed
				r.PreHit = rep.PreHit
				r.PreMiss = rep.PreMiss
				r.ExactHit = rep.ExactHit
				r.ExactMiss = rep.ExactMiss
				r.Irreducible = rep.Irreducible
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// PrecisionRow is one (geometry, benchmark, mode) static classification.
type PrecisionRow struct {
	Geometry CacheGeometry
	Bench    string
	Mode     string

	Sites       int // reference sites in the compilation
	Bypass      int // bypassed (never cached) sites
	PreHit      int // always-hit, decided by the must/may prefilter
	PreMiss     int // always-miss, decided by the prefilter
	ExactHit    int // always-hit, decided only by the exact refinement
	ExactMiss   int // always-miss, decided only by the refinement
	Irreducible int // unknown even to the exact pass
}

// UnknownBefore is how many sites the prefilter left unresolved.
func (r PrecisionRow) UnknownBefore() int { return r.ExactHit + r.ExactMiss + r.Irreducible }

// PrecisionTable is the E11 result.
type PrecisionTable struct {
	Rows []PrecisionRow
}

// PrecisionFromRecords renders the E11 table from its record stream.
func PrecisionFromRecords(recs []sweep.Record) PrecisionTable {
	var t PrecisionTable
	for _, r := range recs {
		t.Rows = append(t.Rows, PrecisionRow{
			Geometry:    geometryOf(r),
			Bench:       r.Bench,
			Mode:        r.Mode,
			Sites:       r.StaticSites,
			Bypass:      r.StaticBypass,
			PreHit:      r.PreHit,
			PreMiss:     r.PreMiss,
			ExactHit:    r.ExactHit,
			ExactMiss:   r.ExactMiss,
			Irreducible: r.Irreducible,
		})
	}
	return t
}

// Precision computes the E11 table from scratch.
func Precision() (PrecisionTable, error) {
	recs, err := RecordsPrecision()
	if err != nil {
		return PrecisionTable{}, err
	}
	return PrecisionFromRecords(recs), nil
}

// String renders the E11 table, grouped by geometry.
func (t PrecisionTable) String() string {
	var sb strings.Builder
	sb.WriteString("E11: static hit/miss classification precision (must/may prefilter vs exact refinement)\n")
	last := CacheGeometry{}
	for _, r := range t.Rows {
		if r.Geometry != last {
			last = r.Geometry
			fmt.Fprintf(&sb, "\ncache %dx%d line %d %s:\n", r.Geometry.Sets, r.Geometry.Ways,
				r.Geometry.LineWords, r.Geometry.Policy)
			fmt.Fprintf(&sb, "%-8s %-12s %6s %7s %8s %9s %10s %11s %15s\n",
				"bench", "mode", "sites", "bypass", "pre-hit", "pre-miss",
				"exact-hit", "exact-miss", "unknown")
		}
		fmt.Fprintf(&sb, "%-8s %-12s %6d %7d %8d %9d %10d %11d %9d -> %2d\n",
			r.Bench, r.Mode, r.Sites, r.Bypass, r.PreHit, r.PreMiss,
			r.ExactHit, r.ExactMiss, r.UnknownBefore(), r.Irreducible)
	}
	return sb.String()
}
