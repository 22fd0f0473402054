package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// awaitGoroutines waits for the goroutine count to drop back to at most
// base, tolerating the runtime's own background settle time.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second) //unilint:ok wallclock test-only settle deadline
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) { //unilint:ok wallclock test-only settle deadline
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d alive, want <= %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchStormExactlyOneCompile is the batching-layer stress test: 32
// concurrent clients hammer the daemon with overlapping requests drawn
// from a small pool of distinct programs. The contract under storm:
// every distinct program compiles exactly once, every response completes
// with a correct answer or a structured status, and the server winds
// down without leaking a goroutine.
func TestBatchStormExactlyOneCompile(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	s, err := New(Config{
		Workers: 4, QueueDepth: 256,
		BatchMaxWait: 3 * time.Millisecond, BatchMaxSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	// A pool of distinct programs, each with a known answer: sum of
	// i*2 for i<n plus nothing else, printed.
	type prog struct{ src, want string }
	pool := make([]prog, 6)
	for p := range pool {
		n := 8 + 2*p
		sum := 0
		for i := 0; i < n; i++ {
			sum += i * 2
		}
		pool[p] = prog{
			src: fmt.Sprintf(`
int a[%d];
void main() {
    int i;
    int s;
    s = 0;
    for (i = 0; i < %d; i++) {
        a[i] = i * 2;
    }
    for (i = 0; i < %d; i++) {
        s = s + a[i];
    }
    print(s);
}`, n, n, n),
			want: fmt.Sprintf("%d\n", sum),
		}
	}

	const clients = 32
	const perClient = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				p := pool[(c+i)%len(pool)]
				// Vary the geometry so identical-source requests split
				// across coalesced sets AND grouped batch replays.
				req := &Request{
					Source: p.src,
					Want:   []string{TierCompile, TierSimulate},
					Cache:  CacheSpec{Sets: 8 << (i % 3)},
				}
				status, resp := post(t, ts.URL, "/v1/eval", req)
				if resp.ErrorKind != "" {
					// Under storm a structured shed is acceptable; silence
					// or a transport error is not (post fails the test).
					switch resp.ErrorKind {
					case KindOverload, KindShed, KindDraining, KindTimeout:
						continue
					default:
						errs <- fmt.Errorf("client %d: unexpected error %s (%s): %s", c, resp.ErrorKind, resp.Phase, resp.Error)
						continue
					}
				}
				if status != 200 || resp.Simulate == nil {
					errs <- fmt.Errorf("client %d: status %d, simulate %v", c, status, resp.Simulate)
					continue
				}
				if resp.Simulate.Output != p.want {
					errs <- fmt.Errorf("client %d: output %q, want %q", c, resp.Simulate.Output, p.want)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Exactly one compile per distinct program, however the storm raced.
	st := s.CacheStats()
	if st.BuildMisses != int64(len(pool)) {
		t.Errorf("BuildMisses = %d, want exactly %d (one compile per distinct program)", st.BuildMisses, len(pool))
	}
	snap := s.Snapshot()
	if snap.Coalesced == 0 {
		t.Error("no requests coalesced — the batching layer never merged identical traffic")
	}
	if snap.BatchFlushes == 0 {
		t.Error("no batch flushes recorded")
	}

	ts.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	awaitGoroutines(t, baseGoroutines)
}

// TestBatchGroupSharesExecution proves the replay path: concurrent
// simulate requests for one program across several cache geometries are
// served by a single batched execution — the VM runs once and the other
// geometries replay the encoded trace (visible as BatchReplays), with
// every response still carrying its own geometry's statistics.
func TestBatchGroupSharesExecution(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 2, QueueDepth: 64,
		// A wide window so one flush captures the whole group.
		BatchMaxWait: 40 * time.Millisecond, BatchMaxSize: 64,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sets := []int{8, 16, 32, 64}
	type out struct {
		sets int
		resp *Response
	}
	results := make(chan out, len(sets))
	var wg sync.WaitGroup
	for _, n := range sets {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			_, resp := post(t, ts.URL, "/v1/simulate", &Request{
				Source: quickSource,
				Want:   []string{TierSimulate},
				Cache:  CacheSpec{Sets: n},
			})
			results <- out{n, resp}
		}(n)
	}
	wg.Wait()
	close(results)

	hits := make(map[int]int64)
	for r := range results {
		if r.resp.ErrorKind != "" {
			t.Fatalf("sets=%d: %s: %s", r.sets, r.resp.ErrorKind, r.resp.Error)
		}
		if r.resp.Simulate.Output != "240\n" {
			t.Fatalf("sets=%d: output %q", r.sets, r.resp.Simulate.Output)
		}
		hits[r.sets] = r.resp.Simulate.Cache.Hits
	}
	if len(hits) != len(sets) {
		t.Fatalf("got %d distinct responses, want %d", len(hits), len(sets))
	}

	st := s.CacheStats()
	if st.BuildMisses != 1 {
		t.Errorf("BuildMisses = %d, want 1", st.BuildMisses)
	}
	if st.BatchReplays == 0 {
		t.Error("BatchReplays = 0 — the group executed every geometry directly instead of replaying")
	}
	if snap := s.Snapshot(); snap.GroupedSets < int64(len(sets)) {
		t.Errorf("GroupedSets = %d, want >= %d", snap.GroupedSets, len(sets))
	}
}

// TestBatchIdenticalCoalesce: identical concurrent requests collapse to
// one execution; every client gets the full answer and the followers are
// marked deduped.
func TestBatchIdenticalCoalesce(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 2, QueueDepth: 64,
		BatchMaxWait: 40 * time.Millisecond, BatchMaxSize: 64,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	resps := make(chan *Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, resp := post(t, ts.URL, "/v1/eval", &Request{Source: quickSource})
			resps <- resp
		}()
	}
	wg.Wait()
	close(resps)

	deduped := 0
	for resp := range resps {
		if resp.ErrorKind != "" {
			t.Fatalf("%s: %s", resp.ErrorKind, resp.Error)
		}
		if resp.Simulate == nil || resp.Simulate.Output != "240\n" {
			t.Fatalf("bad simulate result: %+v", resp.Simulate)
		}
		if resp.Deduped {
			deduped++
		}
	}
	if deduped < n-1 {
		t.Errorf("%d of %d responses deduped, want >= %d", deduped, n, n-1)
	}
	st := s.CacheStats()
	if st.BuildMisses != 1 {
		t.Errorf("BuildMisses = %d, want 1", st.BuildMisses)
	}
	if got := st.RunMisses; got != 1 {
		t.Errorf("RunMisses = %d, want 1 (one execution for %d identical requests)", got, n)
	}

	// Two spellings of the defaults are one request: the batch key is
	// built from the resolved configurations, so the pair coalesces into
	// one execution instead of merely grouping.
	s = newTestServer(t, Config{
		Workers: 2, QueueDepth: 64,
		BatchMaxWait: 2 * time.Second, BatchMaxSize: 2,
	})
	ts2 := httptest.NewServer(s.Handler())
	defer ts2.Close()
	honor := true
	pair := []*Request{
		{Source: quickSource},
		{Source: quickSource, Mode: "unified", Want: []string{TierSimulate, TierCompile, TierSimulate},
			Cache: CacheSpec{Sets: 32, Ways: 2, LineWords: 1, Policy: "lru",
				DeadMarking: "invalidate", HonorBypass: &honor, Seed: 1}},
	}
	got := make([]*Response, len(pair))
	for i, rq := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, got[i] = post(t, ts2.URL, "/v1/eval", rq)
		}()
	}
	wg.Wait()
	deduped = 0
	for _, resp := range got {
		if resp.ErrorKind != "" {
			t.Fatalf("%s: %s", resp.ErrorKind, resp.Error)
		}
		if resp.Deduped {
			deduped++
		}
	}
	if deduped != 1 {
		t.Errorf("%d of 2 differently spelled default requests deduped, want 1", deduped)
	}
	if *got[0].Simulate != *got[1].Simulate {
		t.Errorf("simulate results differ: %+v vs %+v", got[0].Simulate, got[1].Simulate)
	}
	if snap := s.Snapshot(); snap.Coalesced != 1 || snap.GroupedSets != 0 {
		t.Errorf("coalesced = %d, grouped sets = %d; want 1 and 0", snap.Coalesced, snap.GroupedSets)
	}
	if got := s.CacheStats().RunMisses; got != 1 {
		t.Errorf("RunMisses = %d, want 1 for the pair", got)
	}
}

// TestGroupedResponsesMatchSingletons: batching is invisible in the
// answer. The same requests served one at a time (batching off) and
// grouped in one window (one compile, one RunBatch) get the same
// responses up to ID, timing and the Deduped marker — a step-budget
// failure included, which keeps its compile result either way.
func TestGroupedResponsesMatchSingletons(t *testing.T) {
	var reqs []*Request
	for _, src := range []string{spinSource, quickSource} {
		for _, sets := range []int{8, 16} {
			reqs = append(reqs, &Request{Source: src, MaxSteps: 10_000, Cache: CacheSpec{Sets: sets}})
		}
	}
	serveAll := func(cfg Config) ([]*Response, *Snapshot) {
		s := newTestServer(t, cfg)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resps := make([]*Response, len(reqs))
		var wg sync.WaitGroup
		for i, rq := range reqs {
			wg.Add(1)
			go func(i int, rq *Request) {
				defer wg.Done()
				_, resps[i] = post(t, ts.URL, "/v1/eval", rq)
			}(i, rq)
		}
		wg.Wait()
		return resps, s.Snapshot()
	}

	solo, _ := serveAll(Config{Workers: 2, BatchMaxWait: -1})
	grouped, snap := serveAll(Config{Workers: 2, QueueDepth: 64,
		BatchMaxWait: 40 * time.Millisecond, BatchMaxSize: 64})
	if snap.GroupedSets < 2 {
		t.Fatalf("GroupedSets = %d, want >= 2 (the requests were never grouped)", snap.GroupedSets)
	}
	for i := range reqs {
		a, b := *solo[i], *grouped[i]
		for _, r := range []*Response{&a, &b} {
			r.ID, r.Timing, r.Deduped = "", Timing{}, false
		}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Errorf("request %d: grouped response differs from singleton:\nsingleton: %s\ngrouped:   %s", i, aj, bj)
		}
	}
	if solo[0].ErrorKind != KindBudget || solo[0].Compile == nil {
		t.Errorf("spin request: kind %q, compile %v; want a budget failure that keeps compile",
			solo[0].ErrorKind, solo[0].Compile)
	}
	if solo[2].ErrorKind != "" || solo[2].Simulate == nil {
		t.Errorf("quick request: kind %q (%s), want success", solo[2].ErrorKind, solo[2].Error)
	}
}
