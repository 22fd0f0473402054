// Package loadtest is the seeded load-test harness for the unicached
// service. It drives a running daemon over HTTP with a deterministic,
// seeded mix of traffic — dedup-heavy compile+simulate, periodic check
// and exact analyses, budget-exhausting oversized programs, and (against
// a Debug daemon) injected panics — and aggregates per-request outcomes
// into the same latency histogram the server keeps, dumped as
// BENCH_serve.json (schema unicache-serve-bench/v1).
//
// The harness is itself the robustness proof: the acceptance bar is a
// daemon that sustains the full mix at four-digit request rates with
// zero crashes, where every injected fault comes back as a structured
// error instead of a dead process.
package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ledger"
	"repro/internal/serve"
)

// BenchSchema tags the persisted report.
const BenchSchema = "unicache-serve-bench/v1"

// Options parameterizes a run. Zero fields take the defaults noted.
type Options struct {
	BaseURL     string // daemon base URL (required), e.g. http://127.0.0.1:8080
	Requests    int    // total requests (default 2000)
	Concurrency int    // concurrent clients (default 32)
	Seed        int64  // traffic-mix seed (default 1)
}

const (
	// sourcePool is the number of distinct generated programs; requests
	// draw from this small pool so the mix is dedup-heavy by construction.
	sourcePool = 8

	// Fault mix, as periods over the request index: every panicEvery-th
	// request injects a panic (needs a Debug daemon), every budgetEvery-th
	// sends a spin program under a tiny step budget (the oversized-program
	// case), every checkEvery-th adds the check tier and every
	// exactEvery-th the exact tier.
	panicEvery  = 101
	budgetEvery = 53
	checkEvery  = 11
	exactEvery  = 29

	deadlineMS = 5000 // per-request deadline
)

func (o Options) withDefaults() Options {
	if o.Requests <= 0 {
		o.Requests = 2000
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Report is the persisted outcome of one run.
type Report struct {
	Schema      string `json:"schema"`
	Seed        int64  `json:"seed"`
	Requests    int    `json:"requests"`
	Concurrency int    `json:"concurrency"`
	SourcePool  int    `json:"source_pool"`

	DurationMS int64   `json:"duration_ms"`
	Throughput float64 `json:"throughput_rps"`

	// Outcomes maps the service's outcome tags ("ok", "ok-degraded",
	// "panic", "budget", ...) to counts; TransportErrors counts requests
	// that never produced a decodable response (the daemon-crashed
	// signal — the acceptance bar is zero).
	Outcomes        map[string]int64 `json:"outcomes"`
	TransportErrors int64            `json:"transport_errors"`

	PanicsInjected int64 `json:"panics_injected"`
	PanicsIsolated int64 `json:"panics_isolated"`
	// PanicsShed counts panic-injected requests the daemon refused at
	// admission (429/503) — they never reached a worker, so there was
	// nothing to isolate. Injected = Isolated + Shed, or the daemon
	// swallowed a panic.
	PanicsShed int64 `json:"panics_shed"`
	// Dials counts TCP connections the harness opened. With keep-alives a
	// storm should reuse roughly one connection per concurrent client, so
	// the acceptance bar is dials ≪ requests (Report.Check enforces it) —
	// the regression this catches is a client stack quietly falling back
	// to a dial per request.
	Dials int64 `json:"dials"`

	BudgetsInjected int64 `json:"budgets_injected"`
	// BudgetsStructured counts budget bombs that came back as one of the
	// structured refusals (budget, timeout, or an admission shed). A bomb
	// outside this set either "succeeded" (budget not enforced) or killed
	// something — both verification failures.
	BudgetsStructured int64 `json:"budgets_structured"`
	Deduped           int64 `json:"deduped"` // responses flagged as single-flight hits

	Latency *serve.Histogram `json:"latency"`
	P50NS   int64            `json:"p50_ns"`
	P90NS   int64            `json:"p90_ns"`
	P99NS   int64            `json:"p99_ns"`
	MaxNS   int64            `json:"max_ns"`

	// HealthyAfter records that /healthz still answered once the storm
	// had passed — the zero-crashes check in executable form.
	HealthyAfter bool `json:"healthy_after"`
}

// newSeededRand is the harness's only randomness source; everything
// derives deterministically from the seed.
func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// genSource emits one small deterministic MC program from r. Programs
// vary in constants and array sizes but all finish in a few thousand
// instructions, so throughput measures the service, not the programs.
func genSource(r *rand.Rand) string {
	n := 8 + r.Intn(24)
	mul := 1 + r.Intn(9)
	add := r.Intn(100)
	return fmt.Sprintf(`
int a[%d];
void main() {
    int i;
    int s;
    s = %d;
    for (i = 0; i < %d; i++) {
        a[i] = i * %d;
    }
    for (i = 0; i < %d; i++) {
        s = s + a[i];
    }
    print(s);
}`, n, add, n, mul, n)
}

// spin is the budget-exhausting program: far more iterations than any
// sane step budget allows.
const spin = `
void main() {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 100000000; i++) {
        acc = acc + i;
    }
    print(acc);
}`

// requestFor builds the deterministic request for index i.
func requestFor(i int, pool []string) *serve.Request {
	rq := &serve.Request{
		Source:     pool[i%len(pool)],
		DeadlineMS: deadlineMS,
		Want:       []string{serve.TierCompile, serve.TierSimulate},
	}
	if i%checkEvery == 0 {
		rq.Want = append(rq.Want, serve.TierCheck)
	}
	if i%exactEvery == 0 {
		rq.Want = append(rq.Want, serve.TierExact)
	}
	if i%budgetEvery == 1 {
		rq.Source = spin
		rq.MaxSteps = 50_000
		rq.Want = []string{serve.TierSimulate}
	}
	if i%panicEvery == 2 {
		rq.InjectPanic = "loadtest"
		rq.Want = []string{serve.TierSimulate}
	}
	return rq
}

// Run drives the daemon and aggregates the report.
func Run(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	if opt.BaseURL == "" {
		return nil, fmt.Errorf("loadtest: BaseURL required")
	}

	rng := newSeededRand(opt.Seed)
	pool := make([]string, sourcePool)
	for i := range pool {
		pool[i] = genSource(rng)
	}

	rep := &Report{
		Schema:      BenchSchema,
		Seed:        opt.Seed,
		Requests:    opt.Requests,
		Concurrency: opt.Concurrency,
		SourcePool:  sourcePool,
		Outcomes:    make(map[string]int64),
		Latency:     serve.NewHistogram(),
	}

	// One shared client with keep-alives and a counted dialer: the dial
	// count lands in the report so connection churn is an asserted
	// invariant, not a hidden cost.
	var dials atomic.Int64
	dialer := &net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}
	client := &http.Client{
		Timeout: time.Duration(deadlineMS+10_000) * time.Millisecond,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	idx := make(chan int)
	start := time.Now() //unilint:ok wallclock throughput denominator of the load-test report; wall time is the measurand
	for w := 0; w < opt.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				rq := requestFor(i, pool)
				t0 := time.Now() //unilint:ok wallclock per-request latency sample; the report is a measurement, not a golden
				resp, err := postEval(client, opt.BaseURL, rq)
				ns := time.Since(t0).Nanoseconds() //unilint:ok wallclock per-request latency sample; the report is a measurement, not a golden
				mu.Lock()
				if rq.InjectPanic != "" {
					rep.PanicsInjected++
				}
				if rq.MaxSteps > 0 {
					rep.BudgetsInjected++
				}
				if err != nil {
					rep.TransportErrors++
				} else {
					rep.Outcomes[outcomeTag(resp)]++
					if rq.InjectPanic != "" {
						switch resp.ErrorKind {
						case serve.KindPanic:
							rep.PanicsIsolated++
						case serve.KindOverload, serve.KindDraining, serve.KindShed:
							rep.PanicsShed++
						}
					}
					if rq.MaxSteps > 0 {
						switch resp.ErrorKind {
						case serve.KindBudget, serve.KindTimeout,
							serve.KindOverload, serve.KindDraining, serve.KindShed:
							rep.BudgetsStructured++
						}
					}
					if resp.Deduped {
						rep.Deduped++
					}
					rep.Latency.Observe(ns)
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < opt.Requests; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	elapsed := time.Since(start) //unilint:ok wallclock throughput denominator of the load-test report; wall time is the measurand

	rep.DurationMS = elapsed.Milliseconds()
	if secs := elapsed.Seconds(); secs > 0 {
		rep.Throughput = float64(opt.Requests) / secs
	}
	rep.P50NS = rep.Latency.Quantile(0.50)
	rep.P90NS = rep.Latency.Quantile(0.90)
	rep.P99NS = rep.Latency.Quantile(0.99)
	rep.MaxNS = rep.Latency.MaxNS
	rep.Dials = dials.Load()

	if hr, err := client.Get(opt.BaseURL + "/healthz"); err == nil {
		hr.Body.Close()
		rep.HealthyAfter = hr.StatusCode == http.StatusOK
	}
	return rep, nil
}

func outcomeTag(resp *serve.Response) string {
	if resp.ErrorKind != "" {
		return resp.ErrorKind
	}
	if len(resp.Degraded) > 0 {
		return "ok-degraded"
	}
	return "ok"
}

func postEval(client *http.Client, base string, rq *serve.Request) (*serve.Response, error) {
	body, err := json.Marshal(rq)
	if err != nil {
		return nil, err
	}
	hr, err := client.Post(base+"/v1/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	var resp serve.Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// VerifyBench strictly reads a persisted report (ledger.Verify): the CI
// gate for the checked-in BENCH_serve.json.
func VerifyBench(r io.Reader) (*Report, error) { return ledger.Verify[Report](r, BenchSchema) }

// Check reports whether the run behind a report was sound: requests were
// measured, none was lost in transport, and every injected panic, budget
// bomb and dial is accounted for.
func (rep *Report) Check() error {
	if rep.Requests <= 0 || rep.Throughput <= 0 || rep.Latency == nil || rep.Latency.Count <= 0 {
		return fmt.Errorf("serve bench: degenerate report (requests=%d, rps=%.1f)", rep.Requests, rep.Throughput)
	}
	if rep.TransportErrors > 0 {
		return fmt.Errorf("serve bench: %d transport errors — the daemon dropped requests", rep.TransportErrors)
	}
	if rep.Outcomes["ok"] <= 0 {
		return fmt.Errorf("serve bench: no successful requests")
	}
	if rep.PanicsInjected != rep.PanicsIsolated+rep.PanicsShed {
		return fmt.Errorf("serve bench: %d panics injected but only %d isolated and %d shed — one was swallowed",
			rep.PanicsInjected, rep.PanicsIsolated, rep.PanicsShed)
	}
	if rep.BudgetsInjected != rep.BudgetsStructured {
		return fmt.Errorf("serve bench: %d budget bombs injected but only %d came back structured",
			rep.BudgetsInjected, rep.BudgetsStructured)
	}
	if rep.Requests >= 100 {
		if rep.Dials < 1 {
			return fmt.Errorf("serve bench: no dial accounting (dials=%d)", rep.Dials)
		}
		if rep.Dials*8 > int64(rep.Requests) {
			return fmt.Errorf("serve bench: %d dials for %d requests — connection reuse is broken",
				rep.Dials, rep.Requests)
		}
	}
	return nil
}
