package serve

import (
	"fmt"
	"sort"

	"repro/internal/artifact"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/vm"
)

// Tier names a unit of optional work a request can ask for. Simulate is
// never shed — the paper's guarantee that hints are performance-only means
// a degraded answer is still a correct answer, and the service leans on
// exactly that: under pressure it drops exact first, then check, never the
// simulation itself.
const (
	TierCompile  = "compile"
	TierSimulate = "simulate"
	TierCheck    = "check"
	TierExact    = "exact"
)

// ErrorKind values of Response.ErrorKind.
const (
	KindRequest  = "request"          // malformed request (HTTP 400)
	KindCompile  = "compile-error"    // the program does not compile (400)
	KindBudget   = "budget"           // step budget exhausted (422)
	KindRuntime  = "runtime"          // program fault, e.g. division by zero (422)
	KindTimeout  = "timeout"          // deadline exceeded (504)
	KindPanic    = "panic"            // isolated internal panic (500)
	KindOverload = "overload"         // admission queue full (429)
	KindDraining = "draining"         // shutting down (503)
	KindShed     = "shed"             // queued at drain time, not admitted (503)
	KindTooLarge = "source-too-large" // admission size cap (413)
	KindInternal = "internal"         // environment failure, e.g. store perms (500)
)

// Request is one compile-and-simulate job. The zero value of every field
// is the paper's default (unified mode, default cache geometry).
type Request struct {
	Source string `json:"source"`

	// Compiler configuration (mirrors unicache.CompileOptions).
	Mode           string `json:"mode,omitempty"` // "unified" (default) or "conventional"
	Optimize       bool   `json:"optimize,omitempty"`
	Inline         bool   `json:"inline,omitempty"`
	PromoteGlobals bool   `json:"promote_globals,omitempty"`
	StackScalars   bool   `json:"stack_scalars,omitempty"`

	// Want lists the tiers to run; empty means the endpoint's default.
	Want []string `json:"want,omitempty"`

	Cache    CacheSpec `json:"cache,omitempty"`
	MaxSteps int64     `json:"max_steps,omitempty"`

	// DeadlineMS bounds the whole request (queue wait included); 0 means
	// the server default, and values above the server maximum are clamped.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// WantAssembly adds the full UM assembly listing to the compile
	// result (off by default: listings dwarf the statistics).
	WantAssembly bool `json:"want_assembly,omitempty"`

	// Fault-injection seams, honored only when the server runs with
	// Config.Debug — the load-test harness and CI use them to prove panic
	// isolation and drain behavior without planting real bugs.
	InjectPanic   string `json:"inject_panic,omitempty"`
	InjectSleepMS int64  `json:"inject_sleep_ms,omitempty"`
}

// CacheSpec parameterizes the simulated data cache; zero fields keep the
// mode's defaults.
type CacheSpec = cache.Spec

// CompileResult is the compile tier's answer.
type CompileResult struct {
	Key      string           `json:"key"` // content address (short prefix)
	Static   core.StaticStats `json:"static"`
	Assembly string           `json:"assembly,omitempty"`
}

// SimResult is the simulate tier's answer.
type SimResult struct {
	Output       string      `json:"output"`
	Instructions int64       `json:"instructions"`
	Loads        int64       `json:"loads"`
	Stores       int64       `json:"stores"`
	Cache        cache.Stats `json:"cache"`
}

// CheckResult is the check tier's answer: static verifier violations plus
// the must/may cache-analysis summary.
type CheckResult struct {
	Violations int      `json:"violations"`
	Messages   []string `json:"messages,omitempty"` // capped at 8
	CacheLine  string   `json:"cache_summary"`
}

// ExactResult is the exact tier's answer (counts from exact.Report).
type ExactResult struct {
	Total       int    `json:"total"`
	Bypassed    int    `json:"bypassed"`
	PreHit      int    `json:"pre_hit"`
	PreMiss     int    `json:"pre_miss"`
	ExactHit    int    `json:"exact_hit"`
	ExactMiss   int    `json:"exact_miss"`
	Irreducible int    `json:"irreducible"`
	Solver      string `json:"solver"`
	Steps       int64  `json:"steps"`
	Exhausted   bool   `json:"exhausted"`
}

// Response is the service's answer. Status carries the HTTP code out of
// the worker; it is not part of the JSON body (the transport already says
// it).
type Response struct {
	ID     string `json:"id"`
	Status int    `json:"-"`

	ErrorKind string `json:"error_kind,omitempty"`
	Error     string `json:"error,omitempty"`
	Phase     string `json:"phase,omitempty"` // pipeline phase for panics/timeouts

	Deduped  bool     `json:"deduped,omitempty"`  // single-flight hit
	Degraded []string `json:"degraded,omitempty"` // tiers shed under pressure

	Compile  *CompileResult `json:"compile,omitempty"`
	Simulate *SimResult     `json:"simulate,omitempty"`
	Check    *CheckResult   `json:"check,omitempty"`
	Exact    *ExactResult   `json:"exact,omitempty"`

	Timing Timing `json:"timing"`

	// recLine carries a campaign unit's marshaled sweep.Record line from
	// the worker to the streaming handler; never serialized.
	recLine []byte
}

// outcome tags the response for the metrics maps.
func (r *Response) outcome() string {
	if r.ErrorKind != "" {
		return r.ErrorKind
	}
	if len(r.Degraded) > 0 {
		return "ok-degraded"
	}
	return "ok"
}

func (r *Response) fail(status int, kind, phase, msg string) *Response {
	r.Status = status
	r.ErrorKind = kind
	r.Phase = phase
	r.Error = msg
	return r
}

// configs resolves the request's compiler fields and cache spec: an empty
// mode is unified, and the cache spec overlays the mode's defaults. MIN
// is refused here rather than at execution: it needs the future
// knowledge only a recorded trace provides.
func (rq *Request) configs() (core.Config, cache.Config, error) {
	cfg := core.Config{
		Mode:           core.Unified,
		Optimize:       rq.Optimize,
		Inline:         rq.Inline,
		PromoteGlobals: rq.PromoteGlobals,
		StackScalars:   rq.StackScalars,
	}
	base := cache.DefaultConfig()
	if rq.Mode != "" {
		m, err := core.ParseMode(rq.Mode)
		if err != nil {
			return cfg, base, err
		}
		cfg.Mode = m
	}
	if cfg.Mode == core.Conventional {
		base = cache.ConventionalConfig()
	}
	cc, err := rq.Cache.Apply(base)
	if err == nil && cc.Policy == cache.MIN {
		err = fmt.Errorf("policy %q needs a recorded trace; the daemon executes runs", rq.Cache.Policy)
	}
	return cfg, cc, err
}

// batchKey returns the coalescing identity of a request: two requests
// with equal keys are guaranteed the same response (up to ID, timing and
// the Deduped marker), so the batcher may execute one and fan the answer
// out. The key is built from the resolved configurations, not the
// request's spellings: the artifact key of the source and compiler
// configuration, the cache configuration's key, the sorted tier set,
// max_steps and want_assembly. DeadlineMS is deliberately excluded — it
// shapes when an answer may be abandoned, not what the answer is.
// Debug-injection requests and requests that fail resolution are never
// batchable (false); the latter fail on the direct path.
func (rq *Request) batchKey() (string, bool) {
	if rq.InjectPanic != "" || rq.InjectSleepMS > 0 {
		return "", false
	}
	want, err := wantSet(rq.Want)
	if err != nil {
		return "", false
	}
	ccfg, cc, err := rq.configs()
	if err != nil {
		return "", false
	}
	tiers := make([]string, 0, len(want))
	for w := range want {
		tiers = append(tiers, w)
	}
	sort.Strings(tiers)
	k := artifact.KeyOf(rq.Source, ccfg)
	return fmt.Sprintf("%x|%s|%v|ms%d|asm%v", k[:], cc.Key(), tiers, rq.MaxSteps, rq.WantAssembly), true
}

// groupKey returns the artifact-group identity: requests with equal group
// keys compile the same program under the same execution identity, so the
// batcher may serve them through one artifact.RunBatch (the VM runs once,
// the other geometries replay the encoded trace). Only simulate requests
// without analysis tiers group — check and exact run their own passes.
// Invalid requests (bad tier, mode or cache spec) report false and fail
// individually on the singleton path.
func (rq *Request) groupKey() (string, bool) {
	want, err := wantSet(rq.Want)
	if err != nil || !want[TierSimulate] || want[TierCheck] || want[TierExact] {
		return "", false
	}
	ccfg, _, err := rq.configs()
	if err != nil {
		return "", false
	}
	k := artifact.KeyOf(rq.Source, ccfg)
	return fmt.Sprintf("%x|ms%d", k[:], rq.MaxSteps), true
}

// wantSet validates and normalizes the requested tiers.
func wantSet(want []string) (map[string]bool, error) {
	set := make(map[string]bool, len(want))
	for _, w := range want {
		switch w {
		case TierCompile, TierSimulate, TierCheck, TierExact:
			set[w] = true
		default:
			return nil, fmt.Errorf("unknown tier %q", w)
		}
	}
	return set, nil
}

// interface guards for the error types the classifier dispatches on.
var (
	_ error = (*vm.BudgetError)(nil)
	_ error = (*vm.CancelError)(nil)
	_ error = (*check.CanceledError)(nil)
)
