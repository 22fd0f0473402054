package lint

import (
	"fmt"
	"io"
	"path"
	"sort"
	"strings"

	"repro/internal/ledger"
)

// Schema identifies the lint artifact format, mirroring the sweep/replay
// artifact conventions: a schema header, counts, then one finding per
// line in canonical order. The encoding contains no timestamps and no
// map iterations, so the same tree lints to byte-identical artifacts.
const Schema = "unicache-lint/v1"

// Report is the decoded form of a lint artifact.
type Report struct {
	Schema       string       `json:"schema"`
	Module       string       `json:"module"`
	Analyzers    []string     `json:"analyzers"`
	Packages     int          `json:"packages"`
	Total        int          `json:"total"`
	Suppressed   int          `json:"suppressed"`
	Unsuppressed int          `json:"unsuppressed"`
	Findings     []Diagnostic `json:"findings"`
}

// NewReport assembles the artifact form of a run result.
func NewReport(module string, r *Result) *Report {
	sup := r.SuppressedCount()
	return &Report{
		Schema:       Schema,
		Module:       module,
		Analyzers:    r.Analyzers,
		Packages:     r.Packages,
		Total:        len(r.Diags),
		Suppressed:   sup,
		Unsuppressed: len(r.Diags) - sup,
		Findings:     r.Diags,
	}
}

// WriteJSON writes the canonical artifact: header fields in fixed order,
// then one finding per line (the unit a human diffs and a reader can
// salvage), like the sweep artifact.
func (rep *Report) WriteJSON(w io.Writer) error {
	return ledger.WriteLines(w, rep.Schema, []ledger.Field{
		{Name: "module", Value: rep.Module},
		{Name: "analyzers", Value: rep.Analyzers},
		{Name: "packages", Value: rep.Packages},
		{Name: "total", Value: rep.Total},
		{Name: "suppressed", Value: rep.Suppressed},
		{Name: "unsuppressed", Value: rep.Unsuppressed},
	}, "findings", rep.Findings)
}

// Verify strictly reads a lint artifact (ledger.Verify) and returns it.
func Verify(r io.Reader) (*Report, error) { return ledger.Verify[Report](r, Schema) }

// Check rejects inconsistent counts, findings by unlisted analyzers,
// absolute or empty paths, out-of-range positions, suppression/reason
// mismatches, and non-canonical ordering.
func (rep *Report) Check() error {
	if rep.Module == "" {
		return fmt.Errorf("lint artifact: empty module")
	}
	if !sort.StringsAreSorted(rep.Analyzers) || len(rep.Analyzers) == 0 {
		return fmt.Errorf("lint artifact: analyzers list must be non-empty and sorted")
	}
	if rep.Packages <= 0 {
		return fmt.Errorf("lint artifact: packages %d, want > 0", rep.Packages)
	}
	if rep.Total != len(rep.Findings) {
		return fmt.Errorf("lint artifact: total %d but %d findings", rep.Total, len(rep.Findings))
	}
	if rep.Suppressed+rep.Unsuppressed != rep.Total {
		return fmt.Errorf("lint artifact: suppressed %d + unsuppressed %d != total %d",
			rep.Suppressed, rep.Unsuppressed, rep.Total)
	}
	known := make(map[string]bool, len(rep.Analyzers)+1)
	for _, a := range rep.Analyzers {
		known[a] = true
	}
	known[MetaAnalyzer] = true
	sup := 0
	for i, d := range rep.Findings {
		if err := verifyFinding(d, known); err != nil {
			return fmt.Errorf("lint artifact: finding %d: %w", i, err)
		}
		if d.Suppressed {
			sup++
		}
		if i > 0 && diagLess(d, rep.Findings[i-1]) {
			return fmt.Errorf("lint artifact: findings %d and %d out of canonical order", i-1, i)
		}
	}
	if sup != rep.Suppressed {
		return fmt.Errorf("lint artifact: header claims %d suppressed, findings hold %d", rep.Suppressed, sup)
	}
	return nil
}

func verifyFinding(d Diagnostic, known map[string]bool) error {
	if !known[d.Analyzer] {
		return fmt.Errorf("analyzer %q not in header list", d.Analyzer)
	}
	if d.File == "" || path.IsAbs(d.File) || strings.HasPrefix(d.File, "..") || strings.Contains(d.File, `\`) {
		return fmt.Errorf("file %q must be a slashed module-relative path", d.File)
	}
	if d.Line < 1 || d.Col < 1 {
		return fmt.Errorf("position %d:%d out of range", d.Line, d.Col)
	}
	if d.Message == "" {
		return fmt.Errorf("empty message")
	}
	if d.Suppressed && d.Reason == "" {
		return fmt.Errorf("suppressed finding with no reason")
	}
	if !d.Suppressed && d.Reason != "" {
		return fmt.Errorf("reason %q on an unsuppressed finding", d.Reason)
	}
	return nil
}

// diagLess is the canonical artifact order: Run sorts findings by it and
// Verify requires it.
func diagLess(a, b Diagnostic) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	if a.Col != b.Col {
		return a.Col < b.Col
	}
	if a.Analyzer != b.Analyzer {
		return a.Analyzer < b.Analyzer
	}
	return a.Message < b.Message
}
