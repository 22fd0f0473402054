// Package serve lifts the unicache compile-and-simulate pipeline into a
// hardened, long-running HTTP/JSON service.
//
// Robustness is the design axis, in six mechanisms:
//
//   - Admission control: a bounded worker pool behind an explicit bounded
//     queue. A full queue sheds load with 429 immediately — the service
//     never buffers unboundedly and never stalls accepted work behind an
//     unbounded backlog.
//   - Batched admission: requests accumulate for a max-wait window (or a
//     size threshold) before entering the queue. Identical requests
//     coalesce into one queue slot and one execution; distinct simulate
//     requests for the same program merge into one group task that
//     executes the VM at most once and derives the other geometries by
//     replaying the encoded trace (artifact.RunBatch; a program whose
//     trace the cache already holds runs no VM) — bit-identical to
//     direct execution. A storm of near-identical traffic costs one compile and
//     ~one simulation. See batch.go.
//   - Deadlines: every request carries one (client-set, server-clamped),
//     measured from admission so queue time counts. It is plumbed as a
//     cancellation channel into the simulator (vm.Config.Done) and the
//     analyses (check.Options.Done), so an expiring request surfaces as a
//     structured timeout from inside the hot loops — not a hung worker.
//     Coalesced work runs under a context detached from any single
//     client, so one disconnect cannot cancel the others' answer.
//   - Single-flight dedup: identical in-flight compiles are keyed by the
//     artifact content hash and compile exactly once (internal/artifact),
//     optionally backed by the crash-safe persistent store — which, since
//     the store gained reuse classes, is kept under a byte budget by a
//     liveness-driven GC (artifact.GC, the /v1/gc endpoint, and the
//     post-campaign sweep).
//   - Graceful degradation: under queue pressure the service sheds exact
//     analysis first, then check — never simulate. The paper's own claim
//     (hints are performance-only; PR 2 proved it executable) is what
//     makes a degraded answer still a correct answer.
//   - Panic isolation: each request runs behind an internal/ice guard; a
//     panic in any pass becomes a 500 carrying the failing phase while
//     the daemon lives on.
//
// Campaigns: POST /v1/sweep accepts a sweep.Grid, expands it to canonical
// units, executes them through the same worker pool one execution
// identity per task, and streams one record line per unit back
// (campaign.go) — resumable by unit cursor and byte-identical to a local
// unisweep run.
//
// Shutdown is drain-based: new admissions are refused (503), pending
// batch members are shed, requests already running complete, requests
// still queued are shed with 503, and the listener closes — all under a
// drain deadline.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/ice"
	"repro/internal/vm"
)

const (
	// Degradation thresholds, in percent of queue fullness observed when
	// a request is dequeued: at degradeExactPct the exact tier is shed, at
	// degradeCheckPct the check tier too.
	degradeExactPct = 50
	degradeCheckPct = 80

	maxSourceBytes = 1 << 20 // cap on accepted request bodies

	// exactStepBudget bounds the exact solver per request (deterministic
	// degradation to prefilter verdicts).
	exactStepBudget = 5_000_000
)

// Config parameterizes the service. Zero values mean the defaults noted
// per field.
type Config struct {
	Workers    int // worker-pool size (default GOMAXPROCS)
	QueueDepth int // admission queue capacity (default 4×workers)

	DefaultDeadline time.Duration // per-request default (default 10s)
	MaxDeadline     time.Duration // per-request clamp (default 60s)
	DrainDeadline   time.Duration // shutdown drain budget (default 15s)

	// BatchMaxWait is the admission batching window: a batchable request
	// waits up to this long for near-identical traffic to coalesce with
	// before entering the queue (default 2ms; negative disables batching).
	// Requests carrying debug injections are never batched.
	BatchMaxWait time.Duration
	// BatchMaxSize flushes a batch early once this many requests have
	// accumulated (default 16).
	BatchMaxSize int

	// StoreBudgetBytes, when positive, is the persistent store's byte
	// budget: a GC cycle runs after every campaign (and on demand via
	// /v1/gc), evicting bypass-class entries before live ones. Zero means
	// no automatic GC.
	StoreBudgetBytes int64

	// CacheDir enables the persistent artifact store; empty keeps the
	// single-flight cache memory-only.
	CacheDir string

	// Debug honors the inject_panic / inject_sleep_ms request seams used
	// by the load-test harness and CI to prove isolation and drain.
	Debug bool

	// Logf, when non-nil, receives one-line operational messages.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.DrainDeadline <= 0 {
		c.DrainDeadline = 15 * time.Second
	}
	if c.BatchMaxWait == 0 {
		c.BatchMaxWait = 2 * time.Millisecond
	}
	if c.BatchMaxSize <= 0 {
		c.BatchMaxSize = 16
	}
	return c
}

// reqSet is one distinct request together with every client waiting on
// it: the batcher coalesces identical requests into a single set, and a
// set costs one queue slot and one execution however many clients ride
// on it.
type reqSet struct {
	req     *Request
	enq     time.Time
	ctxs    []context.Context
	waiters []chan *Response // each buffered(1); exactly one send per waiter
}

// task is one unit of queued work: either one or more request sets (a
// singleton from the direct path, a coalesced set, or an artifact-sharing
// group served by batch replay), or a campaign group (exec != nil).
type task struct {
	sets   []*reqSet
	ctx    context.Context
	cancel context.CancelFunc // non-nil when ctx is a detached merged context
	enq    time.Time

	// Campaign groups: exec produces the single response, reply receives
	// it, done releases the campaign's window slot.
	exec  func(*task) *Response
	reply chan *Response
	done  func()
}

// Server is the service instance. Create with New; it is ready (workers
// running) immediately and serves via Handler or ListenAndServe.
type Server struct {
	cfg   Config
	arts  *artifact.Cache
	queue chan *task
	batch *batcher // nil when batching is disabled
	met   *metrics
	seq   atomic.Int64

	draining   atomic.Bool
	handlersWG sync.WaitGroup // in-flight HTTP handlers (guards queue close)
	workersWG  sync.WaitGroup
	shutOnce   sync.Once
	shutErr    error

	mu      sync.Mutex
	httpSrv *http.Server
	ln      net.Listener
}

// New builds the server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var arts *artifact.Cache
	var err error
	if cfg.CacheDir != "" {
		arts, err = artifact.NewDisk(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
	} else {
		arts = artifact.New()
	}
	s := &Server{
		cfg:   cfg,
		arts:  arts,
		queue: make(chan *task, cfg.QueueDepth),
		met:   newMetrics(),
	}
	arts.SetWarnFunc(func(msg string) { s.logf("%s", msg) })
	if cfg.BatchMaxWait > 0 {
		s.batch = newBatcher(s, cfg.BatchMaxWait, cfg.BatchMaxSize)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workersWG.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// CacheStats exposes the artifact-cache counters (single-flight dedup,
// disk hits, salvage).
func (s *Server) CacheStats() artifact.Stats { return s.arts.Stats() }

// Snapshot returns the current statistics report.
func (s *Server) Snapshot() *Snapshot {
	return s.met.snapshot(s.arts.Stats(), s.cfg.Workers, len(s.queue), cap(s.queue), s.draining.Load())
}

// GC runs one store GC cycle under budget bytes (0 uses the configured
// StoreBudgetBytes). Exposed for the /v1/gc endpoint and embedders.
func (s *Server) GC(budget int64) (*artifact.GCReport, error) {
	if budget <= 0 {
		budget = s.cfg.StoreBudgetBytes
	}
	if budget <= 0 {
		return nil, fmt.Errorf("no byte budget: configure StoreBudgetBytes or pass one")
	}
	rep, err := s.arts.GC(budget)
	if err != nil {
		return nil, err
	}
	s.met.noteGC(rep)
	return rep, nil
}

// ---- worker pool ----

func (s *Server) worker() {
	defer s.workersWG.Done()
	for t := range s.queue {
		s.serveTask(t)
	}
}

func (s *Server) serveTask(t *task) {
	defer func() {
		if t.cancel != nil {
			t.cancel()
		}
		if t.done != nil {
			t.done()
		}
	}()
	if s.draining.Load() {
		// Queued but never admitted to a worker before drain began:
		// shed, do not start. Running work is unaffected.
		if t.exec != nil {
			resp := s.shedResponse(t)
			s.met.observe(resp)
			t.reply <- resp
			return
		}
		for _, set := range t.sets {
			s.deliverSet(set, s.shedResponse(t))
		}
		return
	}
	if t.exec != nil {
		resp := t.exec(t)
		s.met.observe(resp)
		t.reply <- resp
		return
	}
	for i, resp := range s.process(t) {
		s.deliverSet(t.sets[i], resp)
	}
}

func (s *Server) shedResponse(t *task) *Response {
	resp := (&Response{}).fail(http.StatusServiceUnavailable, KindShed, "",
		"server drained before the request was admitted")
	resp.Timing.QueueNS = time.Since(t.enq).Nanoseconds() //unilint:ok wallclock Response.Timing latency metric; informational, excluded from dedup keys and artifacts
	resp.Timing.TotalNS = resp.Timing.QueueNS
	return resp
}

// deliverSet fans one response out to every client of a set: the first
// waiter gets resp itself, followers get copies marked Deduped (they
// rode on the leader's execution). One metrics observation per delivered
// response keeps the stats honest about client-visible traffic.
func (s *Server) deliverSet(set *reqSet, resp *Response) {
	for i, ch := range set.waiters {
		r := resp
		if i > 0 {
			cp := *resp
			cp.Deduped = true
			r = &cp
		}
		s.met.observe(r)
		ch <- r
	}
}

// process runs one admitted request task through the tier pipeline and
// returns one response per set. A singleton is a group of one: the
// batcher's groupKey merges only sets that compile the same program under
// one execution identity and want no analysis tier, so a group shares one
// compile and one artifact.RunBatch (the VM executes at most once; the
// other geometries replay its encoded trace), and each set still gets its
// own tiers, assembly flag and errors.
func (s *Server) process(t *task) []*Response {
	resps := make([]*Response, len(t.sets))
	queueNS := time.Since(t.enq).Nanoseconds() //unilint:ok wallclock Response.Timing latency metric; informational, excluded from dedup keys and artifacts
	started := time.Now()                      //unilint:ok wallclock Response.Timing latency metric; informational, excluded from dedup keys and artifacts
	for i := range resps {
		resps[i] = &Response{ID: fmt.Sprintf("r%06d", s.seq.Add(1)), Status: http.StatusOK}
		resps[i].Timing.QueueNS = queueNS
	}
	defer func() {
		total := queueNS + time.Since(started).Nanoseconds() //unilint:ok wallclock Response.Timing latency metric; informational, excluded from dedup keys and artifacts
		for _, resp := range resps {
			resp.Timing.TotalNS = total
		}
	}()
	if t.ctx.Err() != nil {
		for _, resp := range resps {
			resp.fail(http.StatusGatewayTimeout, KindTimeout, "queue", "deadline expired while queued")
		}
		return resps
	}
	if len(t.sets) > 1 {
		s.met.noteGrouped(len(t.sets))
	}

	// Per-set admission. groupKey guarantees every set of a group has
	// the same compiler configuration; a failed set drops out of the
	// remaining phases (its response carries ErrorKind).
	wants := make([]map[string]bool, len(t.sets))
	cacheCfgs := make([]cache.Config, len(t.sets))
	var ccfg core.Config
	var live []int
	for i, set := range t.sets {
		rq, resp := set.req, resps[i]
		want, err := wantSet(rq.Want)
		if err != nil {
			resp.fail(http.StatusBadRequest, KindRequest, "request", err.Error())
			continue
		}
		// Debug-only fault seams.
		if rq.InjectSleepMS > 0 || rq.InjectPanic != "" {
			if !s.cfg.Debug {
				resp.fail(http.StatusBadRequest, KindRequest, "request",
					"debug injections require a server started with Debug")
				continue
			}
			if rq.InjectSleepMS > 0 {
				select {
				case <-time.After(time.Duration(rq.InjectSleepMS) * time.Millisecond):
				case <-t.ctx.Done():
					resp.fail(http.StatusGatewayTimeout, KindTimeout, "debug-sleep",
						"deadline expired during injected sleep")
					continue
				}
			}
		}
		// Degradation decision, from queue pressure at dequeue time.
		load := 100 * len(s.queue) / cap(s.queue)
		if want[TierExact] && load >= degradeExactPct {
			delete(want, TierExact)
			resp.Degraded = append(resp.Degraded, TierExact)
		}
		if want[TierCheck] && load >= degradeCheckPct {
			delete(want, TierCheck)
			resp.Degraded = append(resp.Degraded, TierCheck)
		}
		if rq.InjectPanic != "" {
			_, err := runPhase(rq.InjectPanic, func() error {
				panic(fmt.Sprintf("injected panic in %q (debug)", rq.InjectPanic)) //unilint:ok panicguard deliberate fault injection (debug mode) exercised by serve-smoke; the per-request guard recovers it
			})
			s.classify(resp, rq.InjectPanic, err)
			continue
		}
		if ccfg, cacheCfgs[i], err = rq.configs(); err != nil {
			s.classify(resp, "request", err)
			continue
		}
		wants[i] = want
		live = append(live, i)
	}
	if len(live) == 0 {
		return resps
	}

	lead := t.sets[live[0]].req
	var art *artifact.Artifact
	var shared bool
	compileNS, err := runPhase("compile", func() (err error) {
		art, shared, err = s.arts.BuildShared(lead.Source, ccfg)
		if err == nil && art.Comp == nil && slices.ContainsFunc(live, func(i int) bool {
			return wants[i][TierCheck] || wants[i][TierExact]
		}) {
			art, err = s.arts.BuildIR(lead.Source, ccfg)
		}
		return err
	})
	for _, i := range live {
		resps[i].Timing.CompileNS = compileNS
		if err != nil {
			s.classify(resps[i], "compile", err)
		}
	}
	if err != nil {
		return resps
	}

	var cfgs []vm.Config
	var sims []int
	for _, i := range live {
		rq, resp := t.sets[i].req, resps[i]
		resp.Deduped = shared || i > 0
		if wants[i][TierCompile] {
			cr := &CompileResult{Key: art.Key.String(), Static: art.Static}
			if rq.WantAssembly {
				cr.Assembly = art.Prog.Save()
			}
			resp.Compile = cr
		}
		if wants[i][TierSimulate] {
			cfgs = append(cfgs, vm.Config{MaxSteps: rq.MaxSteps, Cache: cacheCfgs[i], Done: t.ctx.Done()})
			sims = append(sims, i)
		}
	}

	var results []*vm.Result
	simNS, err := runPhase("simulate", func() (err error) {
		results, err = s.arts.RunBatch(art, cfgs)
		return err
	})
	for j, i := range sims {
		resps[i].Timing.SimNS = simNS
		if err != nil {
			// The batch shares one execution: its error is every
			// simulate member's error.
			s.classify(resps[i], "simulate", err)
			continue
		}
		res := results[j]
		resps[i].Simulate = &SimResult{
			Output:       res.Output,
			Instructions: res.Instructions,
			Loads:        res.Loads,
			Stores:       res.Stores,
			Cache:        res.CacheStats,
		}
	}

	copt := check.Options{Unified: ccfg.Mode == core.Unified, Done: t.ctx.Done()}
	for _, i := range live {
		resp := resps[i]
		if wants[i][TierCheck] && resp.ErrorKind == "" {
			s.checkTier(art, cacheCfgs[i], copt, resp)
		}
		if wants[i][TierExact] && resp.ErrorKind == "" {
			s.exactTier(art, cacheCfgs[i], copt, resp)
		}
	}
	return resps
}

// runPhase runs one pipeline phase behind the panic guard, which turns a
// panic into an *ice.Error naming the phase, and reports its duration.
func runPhase(phase string, f func() error) (ns int64, err error) {
	defer ice.Guard(phase, &err)
	tic := time.Now() //unilint:ok wallclock Response.Timing latency metric; informational, excluded from dedup keys and artifacts
	err = f()
	return time.Since(tic).Nanoseconds(), err //unilint:ok wallclock Response.Timing latency metric; informational, excluded from dedup keys and artifacts
}

// checkTier runs the static verifier and the must/may cache analysis.
func (s *Server) checkTier(art *artifact.Artifact, cacheCfg cache.Config, copt check.Options, resp *Response) {
	var vs []check.Violation
	var rep *check.CacheReport
	ns, err := runPhase("check", func() (err error) {
		vs = check.Structural(art.Comp.Prog, copt)
		vs = append(vs, check.DeadMarking(art.Comp.Prog, copt)...)
		vs = append(vs, check.Machine(art.Prog, copt)...)
		rep, err = check.AnalyzeCache(art.Comp.Prog, cacheCfg, copt)
		return err
	})
	resp.Timing.CheckNS = ns
	if err != nil {
		s.classify(resp, "check", err)
		return
	}
	cr := &CheckResult{Violations: len(vs), CacheLine: rep.Summary()}
	for i, v := range vs {
		if i == 8 {
			break
		}
		cr.Messages = append(cr.Messages, v.String())
	}
	resp.Check = cr
}

// exactTier runs the exact cache analysis under the server's step budget.
func (s *Server) exactTier(art *artifact.Artifact, cacheCfg cache.Config, copt check.Options, resp *Response) {
	var rep *exact.Report
	ns, err := runPhase("exact", func() (err error) {
		rep, err = exact.AnalyzeWith(art.Comp.Prog, cacheCfg, copt,
			exact.Options{StepBudget: exactStepBudget})
		return err
	})
	resp.Timing.ExactNS = ns
	if err != nil {
		s.classify(resp, "exact", err)
		return
	}
	resp.Exact = &ExactResult{
		Total: rep.Total, Bypassed: rep.Bypassed,
		PreHit: rep.PreHit, PreMiss: rep.PreMiss,
		ExactHit: rep.ExactHit, ExactMiss: rep.ExactMiss,
		Irreducible: rep.Irreducible,
		Solver:      exact.SolverAntichain, Steps: rep.Steps, Exhausted: rep.Exhausted,
	}
}

// classify maps a tier error onto the response's structured error shape.
func (s *Server) classify(resp *Response, phase string, err error) *Response {
	var ie *ice.Error
	var cancel *vm.CancelError
	var analysisCancel *check.CanceledError
	var budget *vm.BudgetError
	switch {
	case errors.As(err, &ie):
		s.logf("panic isolated in phase %s: %v", ie.Phase, ie.Panic)
		return resp.fail(http.StatusInternalServerError, KindPanic, ie.Phase,
			fmt.Sprintf("internal error in %s (daemon alive): %v", ie.Phase, ie.Panic))
	case errors.As(err, &cancel):
		return resp.fail(http.StatusGatewayTimeout, KindTimeout, phase, err.Error())
	case errors.As(err, &analysisCancel):
		return resp.fail(http.StatusGatewayTimeout, KindTimeout, analysisCancel.Phase, err.Error())
	case errors.As(err, &budget):
		return resp.fail(http.StatusUnprocessableEntity, KindBudget, phase, err.Error())
	case errors.Is(err, fs.ErrPermission):
		return resp.fail(http.StatusInternalServerError, KindInternal, phase, err.Error())
	case phase == "request":
		return resp.fail(http.StatusBadRequest, KindRequest, phase, err.Error())
	case phase == "compile":
		return resp.fail(http.StatusBadRequest, KindCompile, phase, err.Error())
	default:
		// Program-level runtime faults (division by zero, address out of
		// range): the service worked; the program did not.
		return resp.fail(http.StatusUnprocessableEntity, KindRuntime, phase, err.Error())
	}
}

// ---- HTTP front end ----

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	eval := func(defWant ...string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			s.handleEval(w, r, defWant)
		}
	}
	mux.HandleFunc("POST /v1/eval", eval(TierCompile, TierSimulate))
	mux.HandleFunc("POST /v1/compile", eval(TierCompile))
	mux.HandleFunc("POST /v1/simulate", eval(TierSimulate))
	mux.HandleFunc("POST /v1/check", eval(TierCheck))
	mux.HandleFunc("POST /v1/exact", eval(TierExact))
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/gc", s.handleGC)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request, defWant []string) {
	// Register before the draining check: Shutdown closes the queue only
	// after every registered handler finished, and after draining flips no
	// handler ever enqueues — together that makes the close race-free.
	s.handlersWG.Add(1)
	defer s.handlersWG.Done()

	if s.draining.Load() {
		s.reject(w, (&Response{}).fail(http.StatusServiceUnavailable, KindDraining, "",
			"server is draining"))
		return
	}

	body := http.MaxBytesReader(w, r.Body, maxSourceBytes)
	var req Request
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.reject(w, (&Response{}).fail(http.StatusRequestEntityTooLarge, KindTooLarge, "",
				fmt.Sprintf("request body exceeds %d bytes", maxSourceBytes)))
			return
		}
		s.reject(w, (&Response{}).fail(http.StatusBadRequest, KindRequest, "",
			"bad request JSON: "+err.Error()))
		return
	}
	if len(req.Want) == 0 {
		req.Want = defWant
	}

	d := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		d = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()

	reply := make(chan *Response, 1)
	enq := time.Now() //unilint:ok wallclock queue-wait timestamp for the QueueNS latency metric

	if s.batch != nil {
		if key, ok := req.batchKey(); ok {
			s.batch.submit(key, &req, ctx, enq, reply)
			writeJSON(w, <-reply)
			return
		}
	}

	t := &task{
		sets: []*reqSet{{req: &req, enq: enq,
			ctxs: []context.Context{ctx}, waiters: []chan *Response{reply}}},
		ctx: ctx, enq: enq,
	}
	select {
	case s.queue <- t:
	default:
		s.reject(w, (&Response{}).fail(http.StatusTooManyRequests, KindOverload, "",
			"admission queue full"))
		return
	}
	writeJSON(w, <-reply)
}

// reject records and writes an admission-path response (no worker, no
// latency observation — these are O(µs) refusals, not served requests).
func (s *Server) reject(w http.ResponseWriter, resp *Response) {
	s.met.mu.Lock()
	s.met.outcomes[resp.outcome()]++
	s.met.mu.Unlock()
	writeJSON(w, resp)
}

// rejectSet delivers an admission-path refusal to every waiter of a set
// (the batcher's overload and drain paths).
func (s *Server) rejectSet(set *reqSet, resp *Response) {
	for i, ch := range set.waiters {
		r := resp
		if i > 0 {
			cp := *resp
			r = &cp
		}
		s.met.mu.Lock()
		s.met.outcomes[r.outcome()]++
		s.met.mu.Unlock()
		ch <- r
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}

func writeJSON(w http.ResponseWriter, resp *Response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.Status)
	json.NewEncoder(w).Encode(resp)
}

// ---- lifecycle ----

// ListenAndServe binds addr and serves until ctx is canceled, then drains
// under the configured drain deadline. The bound address is available via
// Addr once this returns from the bind (use AddrReady for coordination).
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	srv := s.httpSrv
	s.mu.Unlock()
	s.logf("listening on %s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainDeadline)
		defer cancel()
		return s.Shutdown(dctx)
	case err := <-errc:
		return err
	}
}

// AwaitAddr blocks until the listener is bound, returning its address —
// nil if ctx is canceled first. It exists so launchers using ":0" can
// publish the chosen port (unicached -addr-file).
func (s *Server) AwaitAddr(ctx context.Context) net.Addr {
	for {
		if a := s.Addr(); a != nil {
			return a
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Addr returns the bound listener address, nil before ListenAndServe.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains the server: refuse new admissions (503), shed pending
// batch members (503), let running requests complete, shed still-queued
// ones (503), close the listener, stop the workers. Safe to call once;
// later calls return the first result. The context bounds the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.draining.Store(true)
		s.logf("draining: refusing new admissions")

		// Stop the batcher first: members still waiting in a batch window
		// get their shed reply immediately, which releases their handlers.
		if s.batch != nil {
			s.batch.close()
		}

		s.mu.Lock()
		srv := s.httpSrv
		s.mu.Unlock()
		if srv != nil {
			if err := srv.Shutdown(ctx); err != nil {
				s.shutErr = fmt.Errorf("drain deadline: %w", err)
			}
		}

		// Wait for every registered handler (each is waiting on a worker
		// reply; workers shed queued work instantly once draining, so this
		// converges at the pace of the requests already running).
		handlersDone := make(chan struct{})
		go func() { s.handlersWG.Wait(); close(handlersDone) }()
		select {
		case <-handlersDone:
		case <-ctx.Done():
			s.shutErr = fmt.Errorf("drain deadline: %w", ctx.Err())
			return // leave workers running; the process is exiting anyway
		}

		close(s.queue)
		s.workersWG.Wait()
		s.logf("drained")
	})
	return s.shutErr
}
