package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// quickSource finishes in a few hundred instructions.
const quickSource = `
int a[16];
void main() {
    int i;
    int s;
    s = 0;
    for (i = 0; i < 16; i++) {
        a[i] = i * 2;
    }
    for (i = 0; i < 16; i++) {
        s = s + a[i];
    }
    print(s);
}`

// spinSource runs hundreds of millions of instructions: only a deadline
// (or budget) stops it in test-relevant time.
const spinSource = `
void main() {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 100000000; i++) {
        acc = acc + i;
    }
    print(acc);
}`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// post sends req to path and decodes the Response body.
func post(t *testing.T, base, path string, req *Request) (int, *Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("decode %s response: %v", path, err)
	}
	return hr.StatusCode, &resp
}

// TestEvalEndToEnd: the default eval runs compile+simulate and the answer
// matches the program.
func TestEvalEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, resp := post(t, ts.URL, "/v1/eval", &Request{Source: quickSource})
	if code != http.StatusOK {
		t.Fatalf("status %d, error %q", code, resp.Error)
	}
	if resp.Compile == nil || resp.Simulate == nil {
		t.Fatalf("missing tiers in %+v", resp)
	}
	if want := "240\n"; resp.Simulate.Output != want {
		t.Errorf("output %q, want %q", resp.Simulate.Output, want)
	}
	if resp.Simulate.Instructions == 0 || resp.Compile.Key == "" {
		t.Errorf("degenerate result: %+v", resp)
	}
}

// TestDeadlineStructuredTimeout (satellite 3): a simulate that cannot
// finish under its deadline returns a structured 504 close to the
// deadline, not a hung worker or a killed daemon.
func TestDeadlineStructuredTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const deadline = 150 * time.Millisecond
	start := time.Now()
	code, resp := post(t, ts.URL, "/v1/simulate", &Request{
		Source:     spinSource,
		DeadlineMS: deadline.Milliseconds(),
	})
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout || resp.ErrorKind != KindTimeout {
		t.Fatalf("status %d kind %q, want 504 %q (err %q)", code, resp.ErrorKind, KindTimeout, resp.Error)
	}
	if resp.Phase != "simulate" {
		t.Errorf("phase %q, want simulate", resp.Phase)
	}
	// Tolerance: the cancel poll runs every 4096 instructions, so the
	// timeout must land promptly after the deadline — far from the
	// multi-second full run.
	if elapsed < deadline {
		t.Errorf("timed out after %v, before the %v deadline", elapsed, deadline)
	}
	if elapsed > deadline+2*time.Second {
		t.Errorf("timeout took %v, not prompt for a %v deadline", elapsed, deadline)
	}

	// The worker survived: the next request on the same single worker works.
	if code, resp := post(t, ts.URL, "/v1/eval", &Request{Source: quickSource}); code != http.StatusOK {
		t.Fatalf("worker unusable after timeout: %d %q", code, resp.Error)
	}
}

// TestPanicIsolation: an injected panic comes back as a 500 tagged with
// its phase, and the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Debug: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, resp := post(t, ts.URL, "/v1/eval", &Request{Source: quickSource, InjectPanic: "regalloc"})
	if code != http.StatusInternalServerError || resp.ErrorKind != KindPanic {
		t.Fatalf("status %d kind %q, want 500 %q", code, resp.ErrorKind, KindPanic)
	}
	if resp.Phase != "regalloc" {
		t.Errorf("phase %q, want regalloc", resp.Phase)
	}
	if code, resp := post(t, ts.URL, "/v1/eval", &Request{Source: quickSource}); code != http.StatusOK {
		t.Fatalf("daemon did not survive the panic: %d %q", code, resp.Error)
	}
	if snap := s.Snapshot(); snap.Panics != 1 {
		t.Errorf("Panics = %d, want 1", snap.Panics)
	}
}

// TestInjectionRequiresDebug: the fault seams are rejected outside Debug.
func TestInjectionRequiresDebug(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, resp := post(t, ts.URL, "/v1/eval", &Request{Source: quickSource, InjectPanic: "x"})
	if code != http.StatusBadRequest || resp.ErrorKind != KindRequest {
		t.Fatalf("status %d kind %q, want 400 %q", code, resp.ErrorKind, KindRequest)
	}
}

// TestCompileErrorIs400: a broken program is the client's fault, reported
// with the compiler's message.
func TestCompileErrorIs400(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, resp := post(t, ts.URL, "/v1/compile", &Request{Source: "void main( {"})
	if code != http.StatusBadRequest || resp.ErrorKind != KindCompile {
		t.Fatalf("status %d kind %q, want 400 %q", code, resp.ErrorKind, KindCompile)
	}
	if resp.Error == "" {
		t.Error("compile error lost its message")
	}
}

// TestBudgetIs422: step-budget exhaustion is a structured, deterministic
// client-visible outcome (the oversized-program case of the load test).
func TestBudgetIs422(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, resp := post(t, ts.URL, "/v1/simulate", &Request{Source: spinSource, MaxSteps: 10_000})
	if code != http.StatusUnprocessableEntity || resp.ErrorKind != KindBudget {
		t.Fatalf("status %d kind %q, want 422 %q", code, resp.ErrorKind, KindBudget)
	}
}

// TestServerSingleFlight: identical sources dedupe through the artifact
// cache and the response says so.
func TestServerSingleFlight(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, resp := post(t, ts.URL, "/v1/eval", &Request{Source: quickSource}); code != 200 {
		t.Fatalf("first: %d %q", code, resp.Error)
	}
	_, resp := post(t, ts.URL, "/v1/eval", &Request{Source: quickSource})
	if !resp.Deduped {
		t.Error("second identical request was not deduplicated")
	}
	if snap := s.Snapshot(); snap.Deduped == 0 {
		t.Error("snapshot dedup counter still zero")
	}
}

// TestDegradationTiers: under queue pressure the exact tier is shed while
// simulate (and, below the check threshold, check) still answer.
func TestDegradationTiers(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4, Debug: true,
		// The test stages exact queue occupancy; batching would coalesce
		// the fillers and dissolve the pressure it is measuring.
		BatchMaxWait: -1,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	// Occupy the single worker long enough to build queue pressure.
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, ts.URL, "/v1/eval", &Request{Source: quickSource, InjectSleepMS: 400})
	}()
	time.Sleep(100 * time.Millisecond) // the occupier is now in the worker

	// Queue: the probe first, then three fillers behind it. When the
	// worker frees, the probe is dequeued with 3/4 of the queue full: 75%
	// sheds exact (>=50) but keeps check (<80).
	probeDone := make(chan *Response, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, resp := post(t, ts.URL, "/v1/eval", &Request{
			Source: quickSource,
			Want:   []string{TierSimulate, TierCheck, TierExact},
		})
		probeDone <- resp
	}()
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts.URL, "/v1/eval", &Request{Source: quickSource, Want: []string{TierSimulate}})
		}()
	}

	resp := <-probeDone
	wg.Wait()
	if resp.Simulate == nil {
		t.Fatalf("simulate was shed — it must never be: %+v", resp)
	}
	if resp.Check == nil {
		t.Errorf("check shed below its threshold: degraded=%v", resp.Degraded)
	}
	if resp.Exact != nil || len(resp.Degraded) != 1 || resp.Degraded[0] != TierExact {
		t.Errorf("want exactly the exact tier shed, got exact=%v degraded=%v", resp.Exact, resp.Degraded)
	}
}

// TestOverloadSheds429: a full admission queue refuses immediately.
func TestOverloadSheds429(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Debug: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one into the worker, one into the queue
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts.URL, "/v1/eval", &Request{Source: quickSource, InjectSleepMS: 300})
		}()
		time.Sleep(75 * time.Millisecond)
	}
	code, resp := post(t, ts.URL, "/v1/eval", &Request{Source: quickSource})
	wg.Wait()
	if code != http.StatusTooManyRequests || resp.ErrorKind != KindOverload {
		t.Fatalf("status %d kind %q, want 429 %q", code, resp.ErrorKind, KindOverload)
	}
}

// TestGracefulShutdown (satellite 4): on drain, in-flight work completes,
// queued-but-unadmitted work is shed with 503, new admissions get 503,
// and the listener closes.
func TestGracefulShutdown(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 8, Debug: true, DrainDeadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.ListenAndServe(ctx, "127.0.0.1:0") }()
	var addr net.Addr
	for i := 0; i < 100 && addr == nil; i++ {
		time.Sleep(10 * time.Millisecond)
		addr = s.Addr()
	}
	if addr == nil {
		t.Fatal("server never bound")
	}
	base := "http://" + addr.String()

	type outcome struct {
		code int
		resp *Response
	}
	// A occupies the worker; B and C wait in the queue.
	results := make([]chan outcome, 3)
	for i := range results {
		results[i] = make(chan outcome, 1)
	}
	send := func(i int, sleepMS int64) {
		go func() {
			code, resp := post(t, base, "/v1/eval", &Request{Source: quickSource, InjectSleepMS: sleepMS})
			results[i] <- outcome{code, resp}
		}()
	}
	send(0, 400)
	time.Sleep(100 * time.Millisecond)
	send(1, 0)
	send(2, 0)
	time.Sleep(100 * time.Millisecond)

	cancel() // SIGTERM equivalent: drain
	a := <-results[0]
	if a.code != http.StatusOK {
		t.Errorf("in-flight request did not complete cleanly: %d %q", a.code, a.resp.Error)
	}
	for i := 1; i <= 2; i++ {
		r := <-results[i]
		if r.code != http.StatusServiceUnavailable || r.resp.ErrorKind != KindShed {
			t.Errorf("queued request %d: status %d kind %q, want 503 %q", i, r.code, r.resp.ErrorKind, KindShed)
		}
	}
	if err := <-served; err != nil {
		t.Errorf("drain exceeded its deadline: %v", err)
	}
	// Listener is closed: new connections are refused.
	if _, err := net.DialTimeout("tcp", addr.String(), time.Second); err == nil {
		t.Error("listener still accepting after drain")
	}
}

// TestDrainingRefusesNewAdmissions: a request arriving mid-drain gets 503
// KindDraining at the front door.
func TestDrainingRefusesNewAdmissions(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancelDrain := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelDrain()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, resp := post(t, ts.URL, "/v1/eval", &Request{Source: quickSource})
	if code != http.StatusServiceUnavailable || resp.ErrorKind != KindDraining {
		t.Fatalf("status %d kind %q, want 503 %q", code, resp.ErrorKind, KindDraining)
	}
}

// TestCheckAndExactTiers: the analysis tiers answer with real content on a
// healthy server.
func TestCheckAndExactTiers(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, resp := post(t, ts.URL, "/v1/check", &Request{Source: quickSource})
	if code != http.StatusOK || resp.Check == nil {
		t.Fatalf("check tier: %d %+v", code, resp)
	}
	if resp.Check.Violations != 0 {
		t.Errorf("compiler output fails its own verifier: %v", resp.Check.Messages)
	}
	code, resp = post(t, ts.URL, "/v1/exact", &Request{Source: quickSource})
	if code != http.StatusOK || resp.Exact == nil {
		t.Fatalf("exact tier: %d %+v", code, resp)
	}
	if resp.Exact.Total == 0 {
		t.Error("exact analysis classified zero sites")
	}
}

// TestStatsEndpoint: the snapshot has the pinned schema and coherent
// counters after traffic.
func TestStatsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		post(t, ts.URL, "/v1/eval", &Request{Source: quickSource})
	}
	hr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(hr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != StatsSchema {
		t.Errorf("schema %q, want %q", snap.Schema, StatsSchema)
	}
	if snap.Requests != 3 || snap.Outcomes["ok"] != 3 {
		t.Errorf("requests=%d outcomes=%v, want 3 ok", snap.Requests, snap.Outcomes)
	}
	if snap.Deduped != 2 {
		t.Errorf("deduped=%d, want 2", snap.Deduped)
	}
	if snap.P50NS <= 0 || snap.MeanNS <= 0 {
		t.Errorf("degenerate latency stats: %+v", snap)
	}
}

// TestHistogramQuantiles: bucket math on a known population.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000) // 1µs .. 100µs
	}
	if h.Count != 100 {
		t.Fatalf("count %d", h.Count)
	}
	p50 := h.Quantile(0.50)
	if p50 < 32<<10 || p50 > 128<<10 {
		t.Errorf("p50 = %dns, outside the plausible bucket range", p50)
	}
	if h.Quantile(1.0) < p50 {
		t.Error("quantiles not monotone")
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total != h.Count {
		t.Errorf("bucket counts sum to %d, want %d", total, h.Count)
	}
}

// TestDeadlineClamp: an absurd client deadline is clamped to the server
// maximum rather than honored.
func TestDeadlineClamp(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxDeadline: 200 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	start := time.Now()
	code, _ := post(t, ts.URL, "/v1/simulate", &Request{Source: spinSource, DeadlineMS: 3_600_000})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("clamp ignored: took %v", elapsed)
	}
}

func ExampleServer() {
	s, _ := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(Request{Source: `void main() { print(7); }`})
	hr, _ := http.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(body))
	var resp Response
	json.NewDecoder(hr.Body).Decode(&resp)
	fmt.Print(resp.Simulate.Output)
	s.Shutdown(context.Background())
	// Output: 7
}
