package campaign

import (
	"fmt"
	"io"

	"repro/internal/artifact"
	"repro/internal/ledger"
	"repro/internal/sweep"
)

// BenchSchema tags the BENCH_campaign.json artifact.
const BenchSchema = "unicache-campaign-bench/v1"

// Bench is the machine-readable record of one remote campaign: what was
// streamed, how the transfer behaved, and what the post-campaign GC did.
// Deliberately free of throughput numbers — the artifact pins protocol
// behavior (completeness, resumability, store hygiene), not machine speed.
type Bench struct {
	Schema     string             `json:"schema"`
	Grid       sweep.Grid         `json:"grid"`
	Units      int                `json:"units"`
	Streamed   int                `json:"streamed"` // records received; == Units on success
	Resumes    int                `json:"resumes"`  // streams re-opened mid-campaign
	Bytes      int64              `json:"bytes"`    // stream bytes, all pages
	DurationMS int64              `json:"duration_ms"`
	GC         *artifact.GCReport `json:"gc,omitempty"` // post-campaign cycle, when requested
}

// NewBench summarizes a fetch result.
func NewBench(res *Result, durationMS int64) *Bench {
	return &Bench{
		Schema:     BenchSchema,
		Grid:       res.Grid,
		Units:      res.Units,
		Streamed:   len(res.Lines),
		Resumes:    res.Resumes,
		Bytes:      res.Bytes,
		DurationMS: durationMS,
	}
}

// VerifyBench strictly reads a bench report (ledger.Verify). The CI
// campaign-smoke stage runs it against both the freshly generated and the
// committed artifact.
func VerifyBench(r io.Reader) (*Bench, error) { return ledger.Verify[Bench](r, BenchSchema) }

// Check reports whether a campaign was complete and its store GC sane: a
// valid grid, every unit streamed, and a GC report (when present) that
// flags any budget it left exceeded.
func (b *Bench) Check() error {
	units, err := b.Grid.Units()
	if err != nil {
		return fmt.Errorf("campaign bench: grid: %w", err)
	}
	if b.Units != len(units) {
		return fmt.Errorf("campaign bench: says %d units, grid expands to %d", b.Units, len(units))
	}
	if b.Streamed != b.Units {
		return fmt.Errorf("campaign bench: streamed %d of %d units", b.Streamed, b.Units)
	}
	if b.Resumes < 0 {
		return fmt.Errorf("campaign bench: negative resume count %d", b.Resumes)
	}
	if b.Bytes <= 0 {
		return fmt.Errorf("campaign bench: implausible stream size %d bytes", b.Bytes)
	}
	if b.DurationMS < 0 {
		return fmt.Errorf("campaign bench: negative duration")
	}
	if g := b.GC; g != nil {
		if g.Budget <= 0 {
			return fmt.Errorf("campaign bench: gc report without a budget")
		}
		if g.RemainingBytes > g.Budget && !g.OverBudget {
			return fmt.Errorf("campaign bench: gc left %d bytes over a %d budget without flagging over_budget",
				g.RemainingBytes, g.Budget)
		}
	}
	return nil
}
