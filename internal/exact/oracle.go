package exact

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
)

// OracleViolation is one dynamic reference contradicting a static verdict —
// by construction a soundness bug in check or exact, never in the program.
type OracleViolation struct {
	RefIndex int64  // position in the checked dynamic reference stream
	PC       int    // machine program counter of the reference
	Site     string // static site: function, block, index, abstract block
	Msg      string // what went wrong
}

func (v OracleViolation) String() string {
	return fmt.Sprintf("ref %d (pc %d) at %s: %s", v.RefIndex, v.PC, v.Site, v.Msg)
}

// OracleResult is the outcome of replaying one program's execution against
// its static classification.
type OracleResult struct {
	Report *Report // the static classification that was checked
	Output string  // program output (callers may compare to an expectation)

	Refs            int64 // dynamic references at classified sites
	Unmatched       int64 // machine-invented traffic without a site (frames, args)
	BypassConfirmed int64 // references at bypassed sites that did bypass
	HitsConfirmed   int64 // references at always-hit sites that did hit
	MissesConfirmed int64 // references at always-miss sites that did miss

	ViolationCount int64
	Violations     []OracleViolation // first few, for the report
}

// maxOracleViolations bounds the retained details; the count is exact.
const maxOracleViolations = 16

// Err returns a non-nil error when any verdict was contradicted.
func (r *OracleResult) Err() error {
	if r.ViolationCount == 0 {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "exact oracle: %d violation(s) in %d checked refs", r.ViolationCount, r.Refs)
	for _, v := range r.Violations {
		sb.WriteString("\n  ")
		sb.WriteString(v.String())
	}
	if int64(len(r.Violations)) < r.ViolationCount {
		fmt.Fprintf(&sb, "\n  ... and %d more", r.ViolationCount-int64(len(r.Violations)))
	}
	return fmt.Errorf("%s", sb.String())
}

// Summary renders one line of confirmation counts.
func (r *OracleResult) Summary() string {
	status := "ok"
	if r.ViolationCount > 0 {
		status = fmt.Sprintf("%d VIOLATIONS", r.ViolationCount)
	}
	return fmt.Sprintf("%d refs checked (%d hit-confirmed, %d miss-confirmed, %d bypass, %d unclassified traffic): %s",
		r.Refs, r.HitsConfirmed, r.MissesConfirmed, r.BypassConfirmed, r.Unmatched, status)
}

// Oracle compiles src under ccore, classifies every reference site under
// ccfg (prefilter + exact refinement), executes the program on the
// production VM, and asserts that no always-hit site ever misses, no
// always-miss site ever hits, and bypassed sites (and only they) bypass.
// Machine-invented traffic — prologue/epilogue saves, argument staging —
// carries no site and is counted but not judged.
func Oracle(src string, ccore core.Config, ccfg cache.Config, maxSteps int64) (*OracleResult, error) {
	return OracleWith(src, ccore, ccfg, maxSteps, Options{}, false)
}

// OracleWith is Oracle with explicit solver selection and (optionally)
// summary-based interprocedural call transfer — every solver/mode
// combination must survive the same dynamic replay.
func OracleWith(src string, ccore core.Config, ccfg cache.Config, maxSteps int64, xopt Options, interproc bool) (*OracleResult, error) {
	comp, err := core.Compile(src, ccore)
	if err != nil {
		return nil, err
	}
	opt := check.Options{Unified: ccore.Mode == core.Unified, MaxSteps: maxSteps}
	if interproc {
		opt.Interproc = true
		opt.SavedRegs = core.SavedRegCounts(comp)
	}
	rep, err := AnalyzeWith(comp.Prog, ccfg, opt, xopt)
	if err != nil {
		return nil, err
	}
	prog, sites, err := codegen.GenerateWithSites(comp)
	if err != nil {
		return nil, err
	}

	// Static positions for violation messages.
	pos := make(map[*ir.MemRef]string)
	for _, f := range comp.Prog.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if in := &b.Instrs[i]; in.Ref != nil {
					pos[in.Ref] = fmt.Sprintf("%s b%d i%d (%s)", f.Name, b.ID, i, in)
				}
			}
		}
	}

	sink := &oracleSink{OracleResult: &OracleResult{Report: rep}, sites: sites, pos: pos}
	res, err := vm.Run(prog, vm.Config{Cache: ccfg, MaxSteps: maxSteps, TraceSink: sink})
	if err != nil {
		return nil, err
	}
	sink.Output = res.Output
	return sink.OracleResult, nil
}

// oracleSink is the oracle's vm.TraceSink: it judges every executed
// reference against the static verdict of its site.
type oracleSink struct {
	*OracleResult
	sites codegen.SiteTable
	pos   map[*ir.MemRef]string // static positions for violation messages
}

func (s *oracleSink) violate(ref *ir.MemRef, ev vm.RefEvent, msg string) {
	s.ViolationCount++
	if len(s.Violations) < maxOracleViolations {
		s.Violations = append(s.Violations, OracleViolation{
			RefIndex: s.Refs, PC: ev.PC, Site: s.pos[ref], Msg: msg,
		})
	}
}

// Ref implements vm.TraceSink.
func (s *oracleSink) Ref(ev vm.RefEvent) {
	ref, ok := s.sites[ev.PC]
	if !ok {
		s.Unmatched++
		return
	}
	v, classified := s.Report.Verdicts[ref]
	if !classified {
		// A site the analysis deemed unreachable just executed.
		s.violate(ref, ev, "site executed but was not classified (analysis thought it unreachable)")
		return
	}
	s.Refs++
	if (v == check.Bypassed) != ev.Bypassed {
		s.violate(ref, ev, fmt.Sprintf("static %s but dynamic bypass=%v", v, ev.Bypassed))
		return
	}
	switch v {
	case check.Bypassed:
		s.BypassConfirmed++
	case check.AlwaysHit:
		if !ev.Hit {
			s.violate(ref, ev, "always-hit site missed")
		} else {
			s.HitsConfirmed++
		}
	case check.AlwaysMiss:
		if ev.Hit {
			s.violate(ref, ev, "always-miss site hit")
		} else {
			s.MissesConfirmed++
		}
	}
}
