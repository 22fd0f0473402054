// Campaign endpoints: remote sweeps over the serving daemon.
//
// POST /v1/sweep accepts a sweep.Grid, expands it to the same canonical
// unit order a local unisweep run uses, executes every unit from the
// request's cursor onward through the ordinary worker pool, one task per
// execution identity (sweep.Groups; a cursor inside a group runs the
// rest of that group), and streams results back as NDJSON:
//
//	{"schema":"unicache-campaign/v1","units":N,"cursor":C}   header
//	{"key":...}                                              one line per
//	                                                         sweep.Record,
//	                                                         canonical order
//	{"done":true,"sent":K}                                   trailer, or
//	{"sent":K,"error_kind":...,"error":...,"unit":I}         error trailer
//
// The record lines are exactly Record.MarshalLine — the bytes a local
// sweep would put in its artifact — so a client that concatenates them
// through sweep.WriteJSONLines reproduces the local artifact
// byte-for-byte. The unit-index cursor makes the stream resumable: a
// client that lost the connection after K records re-requests with
// cursor C+K and receives the remainder; records are pure functions of
// their units, so the splice is seamless.
//
// Groups flow through the shared admission queue (one task per group,
// run by sweep.RunGroup), at most max(1, Workers-1) of a campaign's
// queued or running at once: with two or more workers one worker is
// always free for interactive traffic (DESIGN.md §16 gives the hold
// times). Each group executes inside an artifact.Session with ClassLive
// — campaign entries are tagged as predicted-reuse for the store GC, and
// (on a disk store) pinned against eviction while the campaign runs. The
// pins are released before the trailer is written, and after a
// successful campaign one GC cycle sweeps the store back under the
// configured byte budget, also before the trailer: a client that has
// read "done" sees a settled store.
//
// POST /v1/gc runs a GC cycle on demand and returns the report.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/ice"
	"repro/internal/sweep"
)

// CampaignSchema tags the /v1/sweep stream's header line.
const CampaignSchema = "unicache-campaign/v1"

// GCSchema tags the /v1/gc response.
const GCSchema = "unicache-gc-report/v1"

// maxCampaignUnits caps a single campaign request; larger grids must be
// split by the client (the paper grid is 432 units — the cap is generous).
const maxCampaignUnits = 100_000

// SweepRequest is the /v1/sweep body.
type SweepRequest struct {
	Grid   sweep.Grid `json:"grid"`
	Cursor int        `json:"cursor,omitempty"` // canonical unit index to start from
	// DeadlineMS bounds the whole campaign; 0 means no server-side bound
	// (the client's connection is the lifetime).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// CampaignHeader is the stream's first line.
type CampaignHeader struct {
	Schema string `json:"schema"`
	Units  int    `json:"units"`
	Cursor int    `json:"cursor"`
}

// CampaignTrailer is the stream's last line.
type CampaignTrailer struct {
	Done      bool   `json:"done,omitempty"`
	Sent      int    `json:"sent"`
	ErrorKind string `json:"error_kind,omitempty"`
	Error     string `json:"error,omitempty"`
	Unit      int    `json:"unit,omitempty"` // canonical index where the campaign stopped
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.handlersWG.Add(1)
	defer s.handlersWG.Done()
	if s.draining.Load() {
		s.reject(w, (&Response{}).fail(http.StatusServiceUnavailable, KindDraining, "",
			"server is draining"))
		return
	}

	body := http.MaxBytesReader(w, r.Body, maxSourceBytes)
	var req SweepRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.reject(w, (&Response{}).fail(http.StatusBadRequest, KindRequest, "",
			"bad request JSON: "+err.Error()))
		return
	}
	units, err := req.Grid.Units()
	if err != nil {
		s.reject(w, (&Response{}).fail(http.StatusBadRequest, KindRequest, "grid", err.Error()))
		return
	}
	if len(units) > maxCampaignUnits {
		s.reject(w, (&Response{}).fail(http.StatusBadRequest, KindRequest, "grid",
			fmt.Sprintf("grid expands to %d units (cap %d); split the campaign", len(units), maxCampaignUnits)))
		return
	}
	if req.Cursor < 0 || req.Cursor > len(units) {
		s.reject(w, (&Response{}).fail(http.StatusBadRequest, KindRequest, "cursor",
			fmt.Sprintf("cursor %d out of range [0,%d]", req.Cursor, len(units))))
		return
	}

	cctx := r.Context()
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(cctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}

	// Campaign traffic is the store's predicted-reuse class; on a disk
	// store the session also pins touched entries against a concurrent GC.
	sess := s.arts.NewSession(artifact.ClassLive, s.arts.HasDisk())
	defer sess.Close()
	s.met.noteCampaign()
	s.logf("campaign: %d units from cursor %d", len(units), req.Cursor)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	writeLine := func(b []byte) bool {
		if _, err := w.Write(append(b, '\n')); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	writeJSONLine := func(v any) bool {
		b, err := json.Marshal(v)
		if err != nil {
			return false
		}
		return writeLine(b)
	}
	if !writeJSONLine(CampaignHeader{Schema: CampaignSchema, Units: len(units), Cursor: req.Cursor}) {
		return
	}

	// Dispatcher: feeds one task per group into the worker queue under
	// the campaign window. Joined before the trailer is written (the
	// queue must never see a send after Shutdown closes it — handlersWG
	// guards that ordering).
	groups := sweep.Groups(units[req.Cursor:])
	replies := make([]chan *Response, len(groups))
	for i := range replies {
		replies[i] = make(chan *Response, 1)
	}
	dctx, dcancel := context.WithCancel(cctx)
	sem := make(chan struct{}, max(1, s.cfg.Workers-1))
	var dwg sync.WaitGroup
	dwg.Add(1)
	go func() {
		defer dwg.Done()
		for i, grp := range groups {
			select {
			case sem <- struct{}{}:
			case <-dctx.Done():
				return
			}
			t := &task{
				ctx:   dctx,
				enq:   time.Now(), //unilint:ok wallclock queue-wait timestamp for the QueueNS latency metric
				reply: replies[i],
				done:  func() { <-sem },
			}
			t.exec = func(t *task) *Response { campaignStart(len(sem)); return s.execGroup(sess, grp, t) }
			select {
			case s.queue <- t:
			case <-dctx.Done():
				<-sem // return the slot taken above
				return
			}
		}
	}()

	// Collector: deliver records in canonical order, abort on the first
	// group error or client disconnect.
	sent := 0
	var failResp *Response
	aborted := false
collect:
	for i := range groups {
		var resp *Response
		select {
		case resp = <-replies[i]:
		case <-cctx.Done():
			aborted = true
			break collect
		}
		if resp.ErrorKind != "" {
			failResp = resp
			break
		}
		for _, line := range resp.recLines {
			if !writeLine(line) {
				aborted = true // client went away mid-stream; cursor resume covers it
				break collect
			}
			sent++
		}
	}

	// Release everything the campaign holds before announcing how it
	// ended: a client that reads the trailer and immediately POSTs
	// /v1/gc must find none of the campaign's entries pinned.
	dcancel()
	dwg.Wait()
	sess.Close()

	switch {
	case failResp != nil:
		writeJSONLine(CampaignTrailer{Sent: sent, ErrorKind: failResp.ErrorKind,
			Error: failResp.Error, Unit: req.Cursor + sent})
	case aborted:
		// Best-effort: if the connection is dead this write just fails.
		writeJSONLine(CampaignTrailer{Sent: sent, ErrorKind: KindTimeout,
			Error: "campaign canceled", Unit: req.Cursor + sent})
	default:
		// The store just absorbed a campaign's worth of entries; sweep it
		// back under budget before reporting completion.
		if s.cfg.StoreBudgetBytes > 0 && s.arts.HasDisk() {
			if rep, gerr := s.GC(0); gerr == nil {
				s.logf("campaign: post-GC evicted %d entries (%d bytes); %d bytes remain",
					rep.EvictedBypass+rep.EvictedLive, rep.EvictedBytes, rep.RemainingBytes)
			}
		}
		writeJSONLine(CampaignTrailer{Done: true, Sent: sent})
		s.logf("campaign: done, %d records streamed", sent)
	}
}

// campaignStart is a test seam run as each campaign group task starts,
// with the number of the campaign's group tasks queued or running.
var campaignStart = func(inFlight int) {}

// execGroup runs one campaign group on a worker, ice-guarded like every
// other request, and carries the marshaled record lines back on the
// response.
func (s *Server) execGroup(sess *artifact.Session, units []sweep.Unit, t *task) *Response {
	resp := &Response{ID: fmt.Sprintf("r%06d", s.seq.Add(1)), Status: http.StatusOK}
	resp.Timing.QueueNS = time.Since(t.enq).Nanoseconds() //unilint:ok wallclock Response.Timing latency metric; informational, excluded from dedup keys and artifacts
	started := time.Now()                                 //unilint:ok wallclock Response.Timing latency metric; informational, excluded from dedup keys and artifacts
	var recs []sweep.Record
	phase := "campaign"
	err := func() (err error) {
		defer ice.GuardPhase(&phase, &err)
		recs, err = sweep.RunGroup(sess, units, t.ctx.Done())
		return err
	}()
	resp.Timing.SimNS = time.Since(started).Nanoseconds() //unilint:ok wallclock Response.Timing latency metric; informational, excluded from dedup keys and artifacts
	resp.Timing.TotalNS = resp.Timing.QueueNS + resp.Timing.SimNS
	if err != nil {
		return s.classify(resp, phase, err)
	}
	for _, rec := range recs {
		line, merr := rec.MarshalLine()
		if merr != nil {
			return resp.fail(http.StatusInternalServerError, KindInternal, "campaign-encode", merr.Error())
		}
		resp.recLines = append(resp.recLines, line)
	}
	s.met.noteUnits(len(recs))
	return resp
}

// gcHTTPRequest is the /v1/gc body (optional; empty means the server's
// configured budget).
type gcHTTPRequest struct {
	Budget int64 `json:"budget,omitempty"`
}

func (s *Server) handleGC(w http.ResponseWriter, r *http.Request) {
	s.handlersWG.Add(1)
	defer s.handlersWG.Done()
	if s.draining.Load() {
		s.reject(w, (&Response{}).fail(http.StatusServiceUnavailable, KindDraining, "",
			"server is draining"))
		return
	}
	var req gcHTTPRequest
	body := http.MaxBytesReader(w, r.Body, 1<<16)
	if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.reject(w, (&Response{}).fail(http.StatusBadRequest, KindRequest, "",
			"bad request JSON: "+err.Error()))
		return
	}
	if !s.arts.HasDisk() {
		s.reject(w, (&Response{}).fail(http.StatusBadRequest, KindRequest, "gc",
			"cache is memory-only; start the daemon with a cache directory"))
		return
	}
	rep, err := s.GC(req.Budget)
	if err != nil {
		s.reject(w, (&Response{}).fail(http.StatusBadRequest, KindRequest, "gc", err.Error()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Schema string `json:"schema"`
		*artifact.GCReport
	}{GCSchema, rep})
}
