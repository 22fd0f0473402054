package exact

import (
	"fmt"
	"strings"
)

// Summary renders one line of combined counts.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d sites: %d bypass, %d decided by must/may (%d hit, %d miss), %d by exact (%d hit, %d miss), %d irreducible",
		r.Total, r.Bypassed,
		r.PreHit+r.PreMiss, r.PreHit, r.PreMiss,
		r.ExactHit+r.ExactMiss, r.ExactHit, r.ExactMiss,
		r.Irreducible)
}

// Render writes the human-readable refinement report: the summary line
// followed by every site the exact pass decided or left irreducible
// (prefilter-decided sites appear in the prefilter's own report). When the
// step budget ran out, the header says so: some unknown* sites were then
// never refined, rather than refined and found undecidable.
func (r *Report) Render() string {
	var sb strings.Builder
	budget := ""
	if r.Exhausted {
		budget = fmt.Sprintf("; step budget ran out at %d steps, later sites unrefined", r.Steps)
	}
	fmt.Fprintf(&sb, "exact refinement (%d sets x %d ways, line %d, %s%s): %s\n",
		r.Config.Sets, r.Config.Ways, r.Config.LineWords, r.Config.Policy, budget, r.Summary())
	lastFunc := ""
	for _, s := range r.Sites {
		if s.By != ByExact && s.By != ByIrreducible {
			continue
		}
		if s.Func != lastFunc {
			fmt.Fprintf(&sb, "func %s:\n", s.Func)
			lastFunc = s.Func
		}
		verdict := s.Verdict.String()
		if s.By == ByIrreducible {
			verdict = "unknown*" // not decided by the refinement (see ByIrreducible)
		}
		fmt.Fprintf(&sb, "  b%d i%d %-11s %s (%s)\n", s.Block, s.Index, verdict, s.Instr, s.Key)
	}
	return sb.String()
}
