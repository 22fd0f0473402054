package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/vm"
)

// The resilience experiment is the metamorphic test of the paper's safety
// claim: bypass and dead marking are *hints*, so a campaign that only
// loses hints (dead-mark drops, spurious clean invalidations, stuck ways)
// must leave every benchmark's output bit-identical to the fault-free run,
// while a campaign that corrupts data (bit flips, dropped writebacks) must
// be detected by the ECC layer — a structured error or a correction, never
// a silently different output.

// CampaignKind classifies what a fault plan may legally do to a run.
type CampaignKind int

// Campaign kinds.
const (
	// HintLoss campaigns may change performance only; output must be
	// bit-identical to the fault-free run.
	HintLoss CampaignKind = iota
	// Corrupting campaigns damage data; with detection on, the run must
	// either complete with identical output (all damage corrected or
	// retried) or fail with a structured fault error. Silent divergence is
	// the one forbidden outcome.
	Corrupting
)

func (k CampaignKind) String() string {
	if k == Corrupting {
		return "corrupting"
	}
	return "hint-loss"
}

// Campaign is one named fault plan plus the cache detection configuration
// it runs under.
type Campaign struct {
	Name     string
	Kind     CampaignKind
	Plan     faults.Plan
	ECC      cache.ECCMode
	ECCRetry bool
}

// DefaultCampaigns is the standard resilience suite: every fault class the
// injector models, in both safe and corrupting flavors.
func DefaultCampaigns() []Campaign {
	return []Campaign{
		{Name: "lost-kills", Kind: HintLoss,
			Plan: faults.Plan{Seed: 101, DeadMarkLoss: 2}},
		{Name: "spurious-invalidate", Kind: HintLoss,
			Plan: faults.Plan{Seed: 102, SpuriousInvalidate: 50}},
		{Name: "stuck-ways", Kind: HintLoss,
			Plan: faults.Plan{Seed: 103, StuckWays: 512}},
		{Name: "all-hints-lost", Kind: HintLoss,
			Plan: faults.Plan{Seed: 104, DeadMarkLoss: 1, SpuriousInvalidate: 25, StuckWays: 256}},
		{Name: "bit-flips-parity", Kind: Corrupting,
			Plan: faults.Plan{Seed: 105, BitFlip: 5000}, ECC: cache.ECCParity},
		{Name: "bit-flips-secded", Kind: Corrupting,
			Plan: faults.Plan{Seed: 106, BitFlip: 5000}, ECC: cache.ECCSECDED},
		{Name: "bit-flips-retry", Kind: Corrupting,
			Plan: faults.Plan{Seed: 107, BitFlip: 5000}, ECC: cache.ECCParity, ECCRetry: true},
		{Name: "dropped-writebacks", Kind: Corrupting,
			Plan: faults.Plan{Seed: 108, WritebackDrop: 200}, ECC: cache.ECCParity},
	}
}

// CampaignResult is the outcome of one campaign over one benchmark in one
// management mode.
type CampaignResult struct {
	Bench    string
	Mode     core.Mode
	Campaign Campaign

	Injected faults.Counts    // faults that actually fired
	Detector cache.FaultStats // what the detection layer saw
	Misses   int64            // cache misses of the run, up to the fault if it faulted

	OutputIdentical bool  // output matched the fault-free golden run
	Faulted         error // structured fault error that aborted the run, if any

	// Violation describes a resilience failure: a hint-loss campaign that
	// changed output or faulted, or a corrupting campaign that silently
	// diverged. Empty means the campaign behaved as the model demands.
	Violation string
}

// ResilienceReport aggregates a campaign sweep.
type ResilienceReport struct {
	Results []CampaignResult
}

// Violations returns the failing results.
func (r *ResilienceReport) Violations() []CampaignResult {
	var out []CampaignResult
	for _, c := range r.Results {
		if c.Violation != "" {
			out = append(out, c)
		}
	}
	return out
}

// Summary renders the sweep as a table.
func (r *ResilienceReport) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-12s %-20s %-10s %8s %8s %7s %9s %9s %7s  %s\n",
		"bench", "mode", "campaign", "kind", "misses", "injected", "stuck", "detected", "corrected", "retried", "verdict")
	for _, c := range r.Results {
		verdict := "ok: identical output"
		if c.Faulted != nil {
			verdict = "ok: detected (" + c.Faulted.Error() + ")"
		}
		if c.Violation != "" {
			verdict = "VIOLATION: " + c.Violation
		}
		fmt.Fprintf(&sb, "%-10s %-12s %-20s %-10s %8d %8d %7d %9d %9d %7d  %s\n",
			c.Bench, c.Mode, c.Campaign.Name, c.Campaign.Kind,
			c.Misses, c.Injected.Total(), c.Detector.StuckWayRefs, c.Detector.Detected,
			c.Detector.Corrected, c.Detector.Retried, verdict)
	}
	return sb.String()
}

// runUnderCampaign executes prog under one campaign and classifies the
// outcome against the golden (fault-free) output.
func runUnderCampaign(prog *vmProgram, golden string, c Campaign, mode core.Mode) CampaignResult {
	inj := faults.New(c.Plan)
	ccfg := prog.cacheCfg
	ccfg.Injector = inj
	ccfg.ECC = c.ECC
	ccfg.ECCRetry = c.ECCRetry

	res, err := vm.Run(prog.prog, vm.Config{Cache: ccfg})
	out := CampaignResult{Bench: prog.name, Mode: mode, Campaign: c, Injected: inj.Counts()}
	if err != nil {
		out.Faulted = err
		var fe *cache.FaultError
		if !errors.As(err, &fe) {
			out.Violation = fmt.Sprintf("run failed with a non-fault error: %v", err)
			return out
		}
	} else {
		out.OutputIdentical = res.Output == golden
	}
	// A detected fault still returns the counters as of the fault.
	out.Detector = res.FaultStats
	out.Misses = res.CacheStats.Misses

	switch c.Kind {
	case HintLoss:
		if out.Faulted != nil {
			out.Violation = fmt.Sprintf("hint-loss campaign aborted the run: %v", out.Faulted)
		} else if !out.OutputIdentical {
			out.Violation = "hint-loss campaign changed program output"
		}
	case Corrupting:
		// The forbidden outcome: the run completed, output differs, and
		// nothing was detected. Completing with identical output is fine
		// (damage corrected/retried or never consumed); aborting with a
		// FaultError is fine (detected).
		if out.Faulted == nil && !out.OutputIdentical {
			out.Violation = "corrupting campaign silently changed program output"
		}
	}
	return out
}

// vmProgram is a compiled benchmark ready for campaign runs.
type vmProgram struct {
	name     string
	prog     *isa.Program
	cacheCfg cache.Config
}

// Resilience runs the campaign sweep over the given benchmarks in both
// management modes. Pass nil campaigns for DefaultCampaigns. The sweep
// itself never returns an error for a resilience violation — violations
// are data, reported in the result — only for infrastructure failures
// (compile errors, fault-free runs failing).
func Resilience(benches []bench.Benchmark, campaigns []Campaign) (*ResilienceReport, error) {
	if campaigns == nil {
		campaigns = DefaultCampaigns()
	}
	geom := PaperGeometry()
	rep := &ResilienceReport{}
	for _, b := range benches {
		// One unified program runs on both machines: conventional
		// hardware ignores its Bypass and Last bits and sends no kill
		// signal for the injector to drop (DESIGN.md §9).
		comp, err := core.Compile(b.Source, core.Config{Mode: core.Unified})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		machine, err := codegen.Generate(comp)
		if err != nil {
			return nil, fmt.Errorf("%s codegen: %w", b.Name, err)
		}
		for _, mode := range []core.Mode{core.Unified, core.Conventional} {
			ccfg := geom.hardware(mode)
			goldenRes, err := vm.Run(machine, vm.Config{Cache: ccfg})
			if err != nil {
				return nil, fmt.Errorf("%s %s fault-free run: %w", b.Name, mode, err)
			}
			if b.Expected != "" && goldenRes.Output != b.Expected {
				return nil, fmt.Errorf("%s %s: fault-free output wrong before any injection", b.Name, mode)
			}
			p := &vmProgram{name: b.Name, prog: machine, cacheCfg: ccfg}
			for _, c := range campaigns {
				rep.Results = append(rep.Results, runUnderCampaign(p, goldenRes.Output, c, mode))
			}
		}
	}
	return rep, nil
}
