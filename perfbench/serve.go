package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/vm"
)

// serveRate is the schedule's rate in slots per second; a slot sends one
// request or a pair at once. By default the generator paces the slots: it
// sends a slot when it is due or, if the last one is still running, when
// that one ends. An op is a slot, timed in process CPU time as the batch
// workloads time theirs; slots never overlap, so that is the slot's work
// on client and server alike. In wall clock the host's steal time, which
// queueing multiplies, moved op_p50_ms by a quarter between runs.
// --open-loop sends every slot when due and times each request in wall
// clock from its due time, for capacity probes (README.md).
const serveRate = 12

// serveHot is the size of the hot pool.
const serveHot = 16

// maxSourceBytes caps the programs serve-mixed sends. Compile time grows
// with source size, and ScaleKnobs(1) sources run from under 1 KB to over
// 30 KB (1 ms to 300 ms to compile and run); a few of the largest arriving
// together hold both connections and queue everything behind them, which
// drove the run-to-run spread of op_p90_ms. progen-analyze runs the whole
// size range.
const maxSourceBytes = 12_000

// maxInflight bounds the requests the generator keeps outstanding; a slot
// due while this many are in flight is refused and counts as failed.
const maxInflight = 64

// Slot kinds. Fresh slots send a program the server has never seen; the
// others draw from the hot pool, which set-up put in the store.
const (
	slotFresh   = iota // one request: compile, run, insert
	slotHot            // one request: a store hit
	slotDup            // two identical requests at once: coalesced
	slotVariant        // two geometries of one program at once: grouped
)

// serveReq is one request of the schedule.
type serveReq struct {
	slot    int // index of its slot; the due time is slot/rate
	kind    int
	prog    int  // index into fresh or hot
	check   bool // asks for the check tier too
	path    string
	body    []byte
	variant int // geometry variant, slotVariant only
}

// serveResult is what the client saw for one request.
type serveResult struct {
	err    error
	status int
	resp   serve.Response
	// Since the start of the schedule: when the request was due, when the
	// generator sent it, when it got a connection, when the answer was read.
	due, sent, gotConn, done time.Duration
}

type serveMixed struct {
	rate       float64 // slots per second
	openLoop   bool    // send every slot when due, without waiting for the last
	fresh, hot []progenProgram
	reqs       []serveReq

	srv     *serve.Server
	base    string
	client  *http.Client
	cancel  context.CancelFunc
	stopped chan error
}

// geometries are the cache variants slotVariant pairs choose from.
var geometries = []serve.CacheSpec{
	{Sets: 16, Ways: 2}, {Sets: 64, Ways: 2}, {Sets: 32, Ways: 4}, {Sets: 128, Ways: 1},
	{Sets: 16, Ways: 4, Policy: "fifo"}, {Sets: 64, Ways: 1}, {Sets: 32, Ways: 2, Policy: "fifo"},
	{Sets: 8, Ways: 4},
}

// Hot and fresh programs are the OK ones among progen seeds counting up
// from these bases. Fixed sets keep the mixture of program costs the same
// for every workload seed; the seed draws the schedule, the hot program of
// each slot and the order in which the fresh programs are sent.
const (
	hotSeedBase   = 1_000_000
	freshSeedBase = 2_000_000
)

// serveInputs generates the programs and the schedule of a run of the
// given number of slots.
func serveInputs(seed int64, slots int) (hot, fresh []progenProgram, reqs []serveReq) {
	rng := rand.New(rand.NewSource(seed))
	hot = genPrograms(counter(hotSeedBase), serveHot, maxSourceBytes)
	reqs, n := schedule(rng, slots)
	fresh = genPrograms(counter(freshSeedBase), n, maxSourceBytes)
	rng.Shuffle(n, func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	return hot, fresh, reqs
}

func setupServeMixed(pr params) (instance, error) {
	m := &serveMixed{rate: pr.rate, openLoop: pr.openLoop}
	m.hot, m.fresh, m.reqs = serveInputs(pr.seed, int(pr.seconds*pr.rate))
	for i := range m.reqs {
		if err := m.encode(&m.reqs[i]); err != nil {
			return nil, err
		}
	}
	if err := m.start(); err != nil {
		return nil, err
	}
	// Warm up: put every hot program in the store.
	for i := range m.hot {
		r := serveReq{kind: slotHot, prog: i}
		if err := m.encode(&r); err != nil {
			m.close()
			return nil, err
		}
		res := m.send(r, now(), now())
		if err := m.checkResult(r, res); err != nil {
			m.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return m, nil
}

// block is the slot mix, repeated every len(block) slots in an order the
// seed shuffles: 14 fresh, 2 hot, 2 duplicate pairs and 2 variant pairs,
// so 14 of every 24 requests are fresh. Four slots of each block, three
// fresh and one hot, also ask for the check tier. A fixed mix keeps the
// request count and the share of each class equal for every seed, and
// the median inside the fresh class rather than on the boundary between
// cheap and costly requests.
var block = []struct {
	kind  int
	check bool
}{
	{slotFresh, true}, {slotFresh, true}, {slotFresh, true},
	{slotFresh, false}, {slotFresh, false}, {slotFresh, false}, {slotFresh, false},
	{slotFresh, false}, {slotFresh, false}, {slotFresh, false}, {slotFresh, false},
	{slotFresh, false}, {slotFresh, false}, {slotFresh, false},
	{slotHot, true}, {slotHot, false},
	{slotDup, false}, {slotDup, false},
	{slotVariant, false}, {slotVariant, false},
}

// schedule lays out n slots and returns their requests in slot order and
// the number of fresh programs they use.
func schedule(rng *rand.Rand, n int) (reqs []serveReq, fresh int) {
	var order []int
	for s := 0; s < n; s++ {
		if s%len(block) == 0 {
			order = rng.Perm(len(block))
		}
		b := block[order[s%len(block)]]
		r := serveReq{slot: s, kind: b.kind, check: b.check}
		if r.kind == slotFresh {
			r.prog = fresh
			fresh++
		} else {
			r.prog = rng.Intn(serveHot)
		}
		if r.kind == slotVariant {
			r.variant = rng.Intn(len(geometries) - 1)
		}
		reqs = append(reqs, r)
		switch r.kind {
		case slotDup:
			reqs = append(reqs, r)
		case slotVariant:
			r.variant++
			reqs = append(reqs, r)
		}
	}
	return reqs, fresh
}

// encode fills the request's endpoint and body.
func (m *serveMixed) encode(r *serveReq) error {
	rq := serve.Request{}
	r.path = "/v1/eval"
	switch r.kind {
	case slotFresh:
		rq.Source = m.fresh[r.prog].src
	case slotVariant:
		rq.Source = m.hot[r.prog].src
		rq.Cache = geometries[r.variant]
		// A seed of its own makes every pair a run the store has not
		// seen, so each pair runs the VM once and replays the other.
		rq.Cache.Seed = uint64(r.slot) + 1
		r.path = "/v1/simulate" // simulate-only requests group
	default:
		rq.Source = m.hot[r.prog].src
	}
	if r.check {
		rq.Want = []string{serve.TierCompile, serve.TierSimulate, serve.TierCheck}
	}
	b, err := json.Marshal(rq)
	r.body = b
	return err
}

// start runs the server on a loopback port with two workers, and a client
// limited to two connections.
func (m *serveMixed) start() error {
	srv, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.srv, m.cancel, m.stopped = srv, cancel, make(chan error, 1)
	go func() { m.stopped <- srv.ListenAndServe(ctx, "127.0.0.1:0") }()
	addr := srv.AwaitAddr(ctx)
	if addr == nil {
		m.close()
		return fmt.Errorf("server did not start")
	}
	m.base = "http://" + addr.String()
	m.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return nil
}

// send posts one request. Times are taken relative to t0.
func (m *serveMixed) send(r serveReq, t0, due time.Time) serveResult {
	res := serveResult{due: due.Sub(t0), sent: now().Sub(t0)}
	req, err := http.NewRequest(http.MethodPost, m.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { res.gotConn = now().Sub(t0) },
	}))
	hr, err := m.client.Do(req)
	if err != nil {
		res.err = err
		res.done = now().Sub(t0)
		return res
	}
	defer hr.Body.Close()
	res.status = hr.StatusCode
	b, err := io.ReadAll(hr.Body)
	if err == nil {
		err = json.Unmarshal(b, &res.resp)
	}
	res.err = err
	res.done = now().Sub(t0)
	return res
}

// serveRun is the measured phase's record.
type serveRun struct {
	res            []serveResult // per request, schedule order
	late           []float64     // generator lateness per slot, ms
	stats0, stats1 serve.Snapshot
	arts0, arts1   artifact.Stats
}

func (m *serveMixed) run(_ float64, tr *tracer) (*outcome, error) {
	out := &serveRun{res: make([]serveResult, len(m.reqs))}
	var err error
	if out.stats0, err = m.stats(); err != nil {
		return nil, err
	}
	out.arts0 = m.srv.CacheStats()
	slots := m.reqs[len(m.reqs)-1].slot + 1
	slotCPU := make([]float64, slots) // paced: process CPU seconds of each slot
	interval := time.Duration(float64(time.Second) / m.rate)
	var wg sync.WaitGroup
	var mu sync.Mutex
	inflight := 0
	t0 := now()
	for i := 0; i < len(m.reqs); {
		slot := m.reqs[i].slot
		due := t0.Add(time.Duration(slot) * interval)
		if d := due.Sub(now()); d > 0 {
			time.Sleep(d)
		}
		out.late = append(out.late, ms(now().Sub(due)))
		c := cpuSeconds()
		var slotWG sync.WaitGroup
		for ; i < len(m.reqs) && m.reqs[i].slot == slot; i++ {
			mu.Lock()
			full := inflight >= maxInflight
			if !full {
				inflight++
			}
			mu.Unlock()
			if full {
				out.res[i] = serveResult{err: fmt.Errorf("refused: %d requests in flight", maxInflight)}
				continue
			}
			wg.Add(1)
			slotWG.Add(1)
			go func(i int) {
				defer wg.Done()
				defer slotWG.Done()
				sp := tr.begin("http", int64(i), -1)
				out.res[i] = m.send(m.reqs[i], t0, due)
				tr.end(sp)
				mu.Lock()
				inflight--
				mu.Unlock()
			}(i)
		}
		if !m.openLoop {
			slotWG.Wait()
			slotCPU[slot] = cpuSeconds() - c
		}
	}
	wg.Wait()
	elapsed := now().Sub(t0).Seconds()
	out.arts1 = m.srv.CacheStats()
	if out.stats1, err = m.stats(); err != nil {
		return nil, err
	}
	o := &outcome{results: out}
	failed := map[int]bool{}
	for i, r := range out.res {
		if r.err != nil || r.status != http.StatusOK {
			failed[m.opOf(i)] = true
		}
	}
	o.failed = int64(len(failed))
	if m.openLoop {
		o.attempted, o.elapsed = int64(len(m.reqs)), elapsed
		for i, r := range out.res {
			if !failed[i] {
				o.lat = append(o.lat, ms(r.done-r.due))
			}
		}
		return o, nil
	}
	o.attempted = int64(slots)
	for s, c := range slotCPU {
		if !failed[s] {
			o.lat = append(o.lat, c*1e3)
			o.elapsed += c
		}
	}
	return o, nil
}

// opOf is the op request i belongs to: its slot, or in the open loop the
// request itself.
func (m *serveMixed) opOf(i int) int {
	if m.openLoop {
		return i
	}
	return m.reqs[i].slot
}

func (m *serveMixed) stats() (serve.Snapshot, error) {
	var s serve.Snapshot
	hr, err := m.client.Get(m.base + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer hr.Body.Close()
	return s, json.NewDecoder(hr.Body).Decode(&s)
}

// checkResult checks one response against the reference output.
func (m *serveMixed) checkResult(r serveReq, res serveResult) error {
	switch {
	case res.err != nil:
		return res.err
	case res.status != http.StatusOK || res.resp.ErrorKind != "":
		return fmt.Errorf("status %d %s: %s", res.status, res.resp.ErrorKind, res.resp.Error)
	case res.resp.Simulate == nil:
		return fmt.Errorf("no simulate result")
	}
	want := m.hot
	if r.kind == slotFresh {
		want = m.fresh
	}
	if got := res.resp.Simulate.Output; got != want[r.prog].want {
		return fmt.Errorf("output %q, want %q", got, want[r.prog].want)
	}
	if r.check && !degraded(res.resp, serve.TierCheck) {
		if res.resp.Check == nil || res.resp.Check.Violations != 0 {
			return fmt.Errorf("check tier missing or found violations: %+v", res.resp.Check)
		}
	}
	return nil
}

func degraded(resp serve.Response, tier string) bool {
	for _, t := range resp.Degraded {
		if t == tier {
			return true
		}
	}
	return false
}

// verify returns the number of ops with a wrong answer that run has not
// already counted as failed for an error or a refusal.
func (m *serveMixed) verify(o *outcome) int64 {
	run := o.results.(*serveRun)
	bad := map[int]bool{}
	for i, r := range run.res {
		if r.err != nil || r.status != http.StatusOK {
			bad[m.opOf(i)] = true
			continue
		}
		if err := m.checkResult(m.reqs[i], r); err != nil {
			fmt.Fprintf(os.Stderr, "serve-mixed request %d: %v\n", i, err)
			bad[m.opOf(i)] = true
		}
	}
	return int64(len(bad)) - o.failed
}

func (m *serveMixed) layers(o *outcome, _ []span, v map[string]float64) {
	run := o.results.(*serveRun)
	var n, lat, queue, compile, sim, check, wire, deduped, degr float64
	var freshN, freshCompile, freshSim, freshInstr float64
	for i, r := range run.res {
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		t := r.resp.Timing
		n++
		lat += float64((r.done - r.due).Nanoseconds())
		queue += float64((r.gotConn - r.sent).Nanoseconds() + t.QueueNS)
		compile += float64(t.CompileNS)
		sim += float64(t.SimNS)
		check += float64(t.CheckNS)
		wire += float64((r.done - r.gotConn).Nanoseconds() - t.TotalNS)
		if r.resp.Deduped {
			deduped++
		}
		if len(r.resp.Degraded) > 0 {
			degr++
		}
		if m.reqs[i].kind == slotFresh && r.resp.Simulate != nil {
			freshN++
			freshCompile += float64(t.CompileNS)
			freshSim += float64(t.SimNS)
			freshInstr += float64(r.resp.Simulate.Instructions)
		}
	}
	v["core.ms_per_op"] = freshCompile / 1e6 / freshN
	v["vm.ms_per_op"] = freshSim / 1e6 / freshN
	v["vm.instructions_per_op"] = freshInstr / freshN
	v["vm.minstr_per_s"] = freshInstr / (freshSim / 1e9) / 1e6
	// Shares of the latency from the due time. Queueing is the wait for
	// one of the two connections plus the server's admission queue.
	v["serve.queue_pct"] = pct(queue, lat)
	v["serve.compile_pct"] = pct(compile, lat)
	v["serve.sim_pct"] = pct(sim, lat)
	v["serve.check_pct"] = pct(check, lat)
	v["serve.http_pct"] = pct(wire, lat)
	v["serve.deduped_pct"] = pct(deduped, n)
	v["serve.degraded_pct"] = pct(degr, n)
	v["serve.batch_coalesced"] = float64(run.stats1.Coalesced - run.stats0.Coalesced)
	v["serve.batch_grouped"] = float64(run.stats1.GroupedSets - run.stats0.GroupedSets)
	a0, a1 := run.arts0, run.arts1
	v["artifact.build_hit_pct"] = pct(float64(a1.BuildHits-a0.BuildHits),
		float64(a1.BuildHits-a0.BuildHits+a1.BuildMisses-a0.BuildMisses))
	v["artifact.run_hit_pct"] = pct(float64(a1.RunHits-a0.RunHits),
		float64(a1.RunHits-a0.RunHits+a1.RunMisses-a0.RunMisses))
	var late float64
	for _, l := range run.late {
		late += l
	}
	v["loadgen.late_pct"] = pct(late/float64(len(run.late)), 1000/m.rate)

	// The server's request defaults: unified mode, the default cache.
	v["vm.alloc_mb_per_run"] = allocPerRun(m.hot, core.Config{Mode: core.Unified}, vm.Config{})
}

func (m *serveMixed) close() {
	if m.cancel == nil {
		return
	}
	m.cancel()
	if err := <-m.stopped; err != nil {
		fmt.Fprintln(os.Stderr, "serve-mixed: shutdown:", err)
	}
	if m.client != nil {
		m.client.CloseIdleConnections()
	}
	m.cancel = nil
}
