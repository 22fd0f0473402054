package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/ledger"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// testGrid is a reduced paper grid: 2 benchmarks x 2 modes x 2 set counts
// = 8 units, small enough for a unit test, wide enough that the canonical
// order actually interleaves dimensions.
func testGrid() sweep.Grid {
	return sweep.Grid{
		Benchmarks: []string{"bubble", "sieve"},
		Compilers:  []string{sweep.CompilerBaseline},
		Modes:      []string{sweep.ModeConventional, sweep.ModeUnified},
		Sets:       []int{8, 16},
		Ways:       []int{1},
		LineWords:  []int{1},
		Policies:   []string{"lru"},
	}
}

// daemonWorkers gives the test daemons a campaign window of two group
// tasks (max(1, workers-1)), so two of a campaign's groups run at once.
const daemonWorkers = 3

func newDaemon(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// localSweep runs testGrid in-process once per test binary. A sweep is a
// pure function of its grid, so one run is the reference for every test
// and every -count repetition.
var localSweep = sync.OnceValues(func() (*sweep.Result, error) {
	return sweep.Run(testGrid(), sweep.Options{Workers: 2})
})

// localArtifact renders testGrid's local sweep as the canonical artifact
// — the reference bytes every remote campaign must reproduce.
func localArtifact(t *testing.T) []byte {
	t.Helper()
	res, err := localSweep()
	if err != nil {
		t.Fatalf("local sweep: %v", err)
	}
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf, res.Grid, res.Records); err != nil {
		t.Fatalf("local artifact: %v", err)
	}
	return buf.Bytes()
}

// TestRemoteLocalConformance is the campaign conformance golden: the
// artifact reassembled from the daemon's /v1/sweep stream must be
// byte-identical to the artifact a local in-process sweep of the same
// grid writes.
func TestRemoteLocalConformance(t *testing.T) {
	g := testGrid()
	want := localArtifact(t)

	_, ts := newDaemon(t, serve.Config{Workers: daemonWorkers})
	res, err := Fetch(Options{BaseURL: ts.URL, Grid: g})
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if res.Resumes != 0 {
		t.Errorf("unbroken stream recorded %d resumes", res.Resumes)
	}
	units, _ := g.Units()
	if res.Units != len(units) || len(res.Lines) != len(units) {
		t.Fatalf("streamed %d lines for %d units", len(res.Lines), len(units))
	}
	if res.Bytes == 0 {
		t.Error("byte accounting recorded nothing")
	}

	var got bytes.Buffer
	if err := res.WriteArtifact(&got); err != nil {
		t.Fatalf("write artifact: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("remote artifact differs from local sweep (%d vs %d bytes)", got.Len(), len(want))
	}

	// The reassembled artifact must also satisfy the strict verifier.
	a, err := sweep.Verify(bytes.NewReader(got.Bytes()))
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(a.Records) != len(units) {
		t.Fatalf("verify: %d records, want %d", len(a.Records), len(units))
	}
}

// chopTransport breaks the first /v1/sweep stream after a fixed number of
// newline-terminated lines, simulating a mid-stream disconnect. Later
// requests pass through untouched.
type chopTransport struct {
	base  http.RoundTripper
	lines int // complete lines to let through on the first stream
	used  atomic.Bool
}

func (c *chopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/sweep" {
		return resp, err
	}
	if c.used.Swap(true) {
		return resp, nil
	}
	resp.Body = &chopBody{rc: resp.Body, linesLeft: c.lines}
	return resp, nil
}

// chopBody forwards reads until linesLeft newlines have passed, never
// delivering bytes past the last permitted newline, then fails the read.
type chopBody struct {
	rc        io.ReadCloser
	linesLeft int
}

func (c *chopBody) Read(p []byte) (int, error) {
	if c.linesLeft <= 0 {
		return 0, fmt.Errorf("injected mid-stream disconnect")
	}
	n, err := c.rc.Read(p)
	for i := 0; i < n; i++ {
		if p[i] == '\n' {
			c.linesLeft--
			if c.linesLeft == 0 {
				return i + 1, err
			}
		}
	}
	return n, err
}

func (c *chopBody) Close() error { return c.rc.Close() }

// TestResumeAfterDisconnect: a stream killed mid-flight resumes from the
// unit-index cursor and the merged artifact is still byte-identical to
// the local sweep — the mid-stream break is invisible in the output.
func TestResumeAfterDisconnect(t *testing.T) {
	g := testGrid()
	want := localArtifact(t)

	_, ts := newDaemon(t, serve.Config{Workers: daemonWorkers})
	// Let the header plus three record lines through, then cut.
	hc := &http.Client{Transport: &chopTransport{base: http.DefaultTransport, lines: 4}}
	res, err := Fetch(Options{BaseURL: ts.URL, Grid: g, HTTP: hc})
	if err != nil {
		t.Fatalf("fetch with injected disconnect: %v", err)
	}
	if res.Resumes == 0 {
		t.Fatal("the injected disconnect never triggered a resume")
	}

	var got bytes.Buffer
	if err := res.WriteArtifact(&got); err != nil {
		t.Fatalf("write artifact: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("resumed artifact differs from local sweep (%d vs %d bytes)", got.Len(), len(want))
	}
}

// TestResumeGivesUp: when every attempt dies before progress is possible,
// Fetch fails with a structured error instead of looping forever.
func TestResumeGivesUp(t *testing.T) {
	g := testGrid()
	// A transport that kills every stream immediately after the header.
	rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil || req.URL.Path != "/v1/sweep" {
			return resp, err
		}
		resp.Body = &chopBody{rc: resp.Body, linesLeft: 1}
		return resp, nil
	})
	_, ts := newDaemon(t, serve.Config{Workers: daemonWorkers})
	_, err := Fetch(Options{BaseURL: ts.URL, Grid: g, HTTP: &http.Client{Transport: rt}, MaxResumes: 2})
	if err == nil {
		t.Fatal("fetch succeeded with a transport that breaks every stream")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestCampaignBenchRoundTrip: the bench artifact survives write + verify.
func TestCampaignBenchRoundTrip(t *testing.T) {
	g := testGrid()
	_, ts := newDaemon(t, serve.Config{Workers: daemonWorkers})
	res, err := Fetch(Options{BaseURL: ts.URL, Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ledger.WriteIndent(&buf, NewBench(res, 12)); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if _, err := VerifyBench(strings.NewReader(doc)); err != nil {
		t.Fatalf("verify: %v", err)
	}
	for name, bad := range map[string]string{
		"short stream":  strings.Replace(doc, `"streamed": 8`, `"streamed": 7`, 1),
		"unknown field": strings.Replace(doc, `"resumes":`, `"host": "ci", "resumes":`, 1),
		"wrong schema":  strings.Replace(doc, BenchSchema, "unicache-campaign-bench/v0", 1),
	} {
		if bad == doc {
			t.Fatalf("%s: the edit did not apply", name)
		}
		if _, err := VerifyBench(strings.NewReader(bad)); err == nil {
			t.Errorf("verify accepted a report with a %s", name)
		}
	}
}

// TestRemoteGC: a campaign against a disk-backed daemon populates the
// store; /v1/gc under a tiny budget reclaims it and reports honestly.
func TestRemoteGC(t *testing.T) {
	g := testGrid()
	_, ts := newDaemon(t, serve.Config{Workers: daemonWorkers, CacheDir: t.TempDir()})
	if _, err := Fetch(Options{BaseURL: ts.URL, Grid: g}); err != nil {
		t.Fatal(err)
	}
	rep, err := RunGC(nil, ts.URL, 1)
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if rep.Budget != 1 {
		t.Errorf("budget echoed as %d", rep.Budget)
	}
	if rep.ScannedFiles == 0 {
		t.Error("campaign left no store entries to scan")
	}
	if rep.EvictedBypass+rep.EvictedLive == 0 {
		t.Error("a 1-byte budget evicted nothing")
	}
	if rep.RemainingBytes > rep.Budget && !rep.OverBudget {
		t.Errorf("store left at %d bytes over budget %d without OverBudget", rep.RemainingBytes, rep.Budget)
	}
}

// doneProbe is a response writer that runs probe at the moment the sweep
// handler writes its done trailer: the earliest a client could read it.
type doneProbe struct {
	*httptest.ResponseRecorder
	probe func()
}

func (w *doneProbe) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte(`"done":true`)) {
		w.probe()
	}
	return w.ResponseRecorder.Write(b)
}

// TestPinsReleasedBeforeDone: by the time the done trailer is written,
// the campaign's session pins are released and, under a store budget, the
// post-campaign GC has already run. A client that GCs as soon as it reads
// done must find nothing pinned. Probing inside Write makes this
// deterministic where TestRemoteGC can only race it.
func TestPinsReleasedBeforeDone(t *testing.T) {
	for _, budget := range []int64{0, 1} {
		s, _ := newDaemon(t, serve.Config{Workers: daemonWorkers, CacheDir: t.TempDir(), StoreBudgetBytes: budget})
		var rep *artifact.GCReport
		w := &doneProbe{ResponseRecorder: httptest.NewRecorder(), probe: func() {
			var err error
			if rep, err = s.GC(1 << 40); err != nil { // a budget nothing exceeds: observe only
				t.Error(err)
			}
		}}
		body, err := json.Marshal(serve.SweepRequest{Grid: testGrid()})
		if err != nil {
			t.Fatal(err)
		}
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
		if rep == nil {
			t.Fatalf("budget %d: no done trailer in %q", budget, w.Body)
		}
		if rep.Protected != 0 {
			t.Errorf("budget %d: %d store entries still pinned when done was written", budget, rep.Protected)
		}
		if budget == 0 && rep.ScannedFiles == 0 {
			t.Errorf("campaign left no store entries to scan")
		}
		if budget > 0 && rep.ScannedBytes > budget {
			t.Errorf("budget %d: store at %d bytes when done was written; post-campaign GC had not run",
				budget, rep.ScannedBytes)
		}
	}
}

// TestCursorInsideGroup: a cursor that falls inside an execution
// identity's group runs only the rest of that group, and the stream is
// the local artifact's record suffix.
func TestCursorInsideGroup(t *testing.T) {
	g := testGrid()
	local, err := localSweep()
	if err != nil {
		t.Fatal(err)
	}
	const cursor = 3 // groups are 2 units (two set counts): 3 is the second group's second unit
	_, ts := newDaemon(t, serve.Config{Workers: daemonWorkers})
	p, _, err := fetchPage(http.DefaultClient, ts.URL, g, cursor, 0)
	if err != nil {
		t.Fatalf("fetch from cursor %d: %v", cursor, err)
	}
	if p.trailer == nil || !p.trailer.Done || p.trailer.Sent != len(local.Records)-cursor {
		t.Fatalf("trailer %+v, want done after %d records", p.trailer, len(local.Records)-cursor)
	}
	for i, line := range p.lines {
		want, err := local.Records[cursor+i].MarshalLine()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, want) {
			t.Errorf("line %d:\n got %s\nwant %s", i, line, want)
		}
	}
}

// TestRestartedDaemonReadsStore: a second campaign of the same grid,
// against a daemon restarted on the same store, takes every unit from the
// disk store and executes no VM run.
func TestRestartedDaemonReadsStore(t *testing.T) {
	g := testGrid()
	want := localArtifact(t)
	dir := t.TempDir()
	first, ts := newDaemon(t, serve.Config{Workers: daemonWorkers, CacheDir: dir})
	if _, err := Fetch(Options{BaseURL: ts.URL, Grid: g}); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := first.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	second, ts := newDaemon(t, serve.Config{Workers: daemonWorkers, CacheDir: dir})
	res, err := Fetch(Options{BaseURL: ts.URL, Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := res.WriteArtifact(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("artifact from the restarted daemon differs from the local sweep")
	}
	st := second.CacheStats()
	if st.DiskRunHits != int64(g.Size()) || st.RunMisses != 0 || st.BatchReplays != 0 {
		t.Errorf("restarted campaign: %d disk run hits, %d run misses, %d replays; want %d, 0, 0",
			st.DiskRunHits, st.RunMisses, st.BatchReplays, g.Size())
	}
}
