package serve

import (
	"sync"
	"time"

	"repro/internal/artifact"
)

// Timing is the flat per-request timing/outcome record: one struct, one
// level, CSV-friendly — the shape the service aggregates into its latency
// histogram and the load-test harness streams into BENCH_serve.json.
type Timing struct {
	QueueNS   int64 `json:"queue_ns"`
	CompileNS int64 `json:"compile_ns,omitempty"`
	SimNS     int64 `json:"sim_ns,omitempty"`
	CheckNS   int64 `json:"check_ns,omitempty"`
	ExactNS   int64 `json:"exact_ns,omitempty"`
	TotalNS   int64 `json:"total_ns"`
}

// Histogram is a fixed-bucket base-2 exponential latency histogram.
// Bounds run from 1.024µs (2^10 ns) to ~17s (2^34 ns); the final count
// bucket is the overflow. Not safe for concurrent use on its own — the
// server guards it with the metrics mutex.
type Histogram struct {
	BoundsNS []int64 `json:"bounds_ns"` // inclusive upper bounds, one per bucket
	Counts   []int64 `json:"counts"`    // len(BoundsNS)+1: last is overflow
	Count    int64   `json:"count"`
	SumNS    int64   `json:"sum_ns"`
	MaxNS    int64   `json:"max_ns"`
}

// NewHistogram returns an empty histogram with the standard bounds —
// shared with the load-test harness so service and harness aggregate
// into identical bucket layouts.
func NewHistogram() *Histogram { return newHistogram() }

func newHistogram() *Histogram {
	const lo, hi = 10, 34
	h := &Histogram{}
	for e := lo; e <= hi; e++ {
		h.BoundsNS = append(h.BoundsNS, int64(1)<<e)
	}
	h.Counts = make([]int64, len(h.BoundsNS)+1)
	return h
}

// Observe records one latency.
func (h *Histogram) Observe(ns int64) {
	h.Count++
	h.SumNS += ns
	if ns > h.MaxNS {
		h.MaxNS = ns
	}
	for i, b := range h.BoundsNS {
		if ns <= b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Counts)-1]++
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the bound of the bucket holding the q·Count-th observation, or MaxNS for
// the overflow bucket. Zero when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	target := int64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			if i < len(h.BoundsNS) {
				return h.BoundsNS[i]
			}
			return h.MaxNS
		}
	}
	return h.MaxNS
}

// metrics aggregates per-request outcomes under one mutex.
type metrics struct {
	mu       sync.Mutex
	start    time.Time
	outcomes map[string]int64 // outcome tag -> count
	degraded map[string]int64 // shed tier -> count
	panics   int64
	hist     *Histogram

	// Batching-layer counters.
	coalesced int64 // follower requests answered by a coalesced leader
	flushes   int64 // batch windows flushed into the queue
	grouped   int64 // request sets served through a shared batch execution

	// Campaign counters and the latest GC outcome.
	campaigns     int64
	campaignUnits int64
	lastGC        *artifact.GCReport
}

func (m *metrics) noteCoalesced() { m.mu.Lock(); m.coalesced++; m.mu.Unlock() }
func (m *metrics) noteFlush()     { m.mu.Lock(); m.flushes++; m.mu.Unlock() }
func (m *metrics) noteGrouped(sets int) {
	m.mu.Lock()
	m.grouped += int64(sets)
	m.mu.Unlock()
}
func (m *metrics) noteCampaign()   { m.mu.Lock(); m.campaigns++; m.mu.Unlock() }
func (m *metrics) noteUnits(n int) { m.mu.Lock(); m.campaignUnits += int64(n); m.mu.Unlock() }
func (m *metrics) noteGC(rep *artifact.GCReport) {
	cp := *rep
	m.mu.Lock()
	m.lastGC = &cp
	m.mu.Unlock()
}

func newMetrics() *metrics {
	return &metrics{
		start:    time.Now(), //unilint:ok wallclock uptime metric epoch for the /metrics endpoint
		outcomes: make(map[string]int64),
		degraded: make(map[string]int64),
		hist:     newHistogram(),
	}
}

func (m *metrics) observe(resp *Response) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.outcomes[resp.outcome()]++
	for _, tier := range resp.Degraded {
		m.degraded[tier]++
	}
	if resp.ErrorKind == KindPanic {
		m.panics++
	}
	m.hist.Observe(resp.Timing.TotalNS)
}

// Snapshot is the machine-readable health/statistics report served at
// /v1/stats (schema unicache-serve-stats/v1).
type Snapshot struct {
	Schema   string `json:"schema"`
	UptimeMS int64  `json:"uptime_ms"`

	Workers  int  `json:"workers"`
	QueueLen int  `json:"queue_len"`
	QueueCap int  `json:"queue_cap"`
	Draining bool `json:"draining"`

	Outcomes map[string]int64 `json:"outcomes"`
	Degraded map[string]int64 `json:"degraded,omitempty"`
	Panics   int64            `json:"panics"`

	// Deduped counts requests answered by an already-present (or
	// in-flight) identical compile — the single-flight counter.
	Deduped   int64          `json:"deduped"`
	Artifacts artifact.Stats `json:"artifacts"`

	// Batching-layer counters: followers coalesced before the queue,
	// windows flushed, and request sets served via shared batch replay.
	Coalesced    int64 `json:"coalesced,omitempty"`
	BatchFlushes int64 `json:"batch_flushes,omitempty"`
	GroupedSets  int64 `json:"grouped_sets,omitempty"`

	// Campaign counters and the most recent store-GC report.
	Campaigns     int64              `json:"campaigns,omitempty"`
	CampaignUnits int64              `json:"campaign_units,omitempty"`
	LastGC        *artifact.GCReport `json:"last_gc,omitempty"`

	Latency  *Histogram `json:"latency"`
	P50NS    int64      `json:"p50_ns"`
	P90NS    int64      `json:"p90_ns"`
	P99NS    int64      `json:"p99_ns"`
	MeanNS   int64      `json:"mean_ns"`
	Requests int64      `json:"requests"`
}

// StatsSchema is the Snapshot schema tag.
const StatsSchema = "unicache-serve-stats/v1"

func (m *metrics) snapshot(arts artifact.Stats, workers, qlen, qcap int, draining bool) *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := &Histogram{
		BoundsNS: append([]int64(nil), m.hist.BoundsNS...),
		Counts:   append([]int64(nil), m.hist.Counts...),
		Count:    m.hist.Count,
		SumNS:    m.hist.SumNS,
		MaxNS:    m.hist.MaxNS,
	}
	out := make(map[string]int64, len(m.outcomes))
	for k, v := range m.outcomes {
		out[k] = v
	}
	deg := make(map[string]int64, len(m.degraded))
	for k, v := range m.degraded {
		deg[k] = v
	}
	s := &Snapshot{
		Schema:   StatsSchema,
		UptimeMS: time.Since(m.start).Milliseconds(), //unilint:ok wallclock uptime metric for the /metrics endpoint; operational, never hashed
		Workers:  workers, QueueLen: qlen, QueueCap: qcap, Draining: draining,
		Outcomes: out, Degraded: deg, Panics: m.panics,
		Deduped:       arts.BuildHits,
		Artifacts:     arts,
		Coalesced:     m.coalesced,
		BatchFlushes:  m.flushes,
		GroupedSets:   m.grouped,
		Campaigns:     m.campaigns,
		CampaignUnits: m.campaignUnits,
		LastGC:        m.lastGC,
		Latency:       h,
		P50NS:         h.Quantile(0.50),
		P90NS:         h.Quantile(0.90),
		P99NS:         h.Quantile(0.99),
		Requests:      h.Count,
	}
	if h.Count > 0 {
		s.MeanNS = h.SumNS / h.Count
	}
	return s
}
