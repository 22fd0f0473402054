// Package campaign is the client side of the daemon's campaign serving:
// it streams a sweep.Grid through POST /v1/sweep, resumes broken streams
// by unit cursor, reassembles the exact artifact a local sweep would have
// written, and records the transfer in a BENCH_campaign.json report.
//
// Byte-identity is by construction, not by luck: the daemon streams the
// exact Record.MarshalLine bytes a local sweep puts in its artifact, in
// the same canonical unit order, and WriteArtifact pushes those raw lines
// through sweep.WriteJSONLines — the same writer unisweep uses. The
// client never re-marshals a record. Every line's key is checked against
// the locally expanded canonical unit sequence, so a daemon speaking a
// different grid, order or record shape fails loudly instead of
// producing a plausible wrong artifact.
package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/ledger"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// NewHTTPClient returns an http.Client tuned for sustained traffic to a
// single daemon: keep-alives with a deep idle pool, so storms of
// sequential or concurrent requests reuse a handful of TCP connections
// instead of dialing per request (the default transport keeps only two
// idle connections per host — at concurrency 32 that is a dial storm).
func NewHTTPClient() *http.Client {
	d := &net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}
	return &http.Client{Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		DialContext:         d.DialContext,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// Options parameterizes one campaign fetch.
type Options struct {
	BaseURL string     // daemon base URL, e.g. http://127.0.0.1:8347
	Grid    sweep.Grid // the campaign; expanded locally for key checking
	HTTP    *http.Client
	// MaxResumes bounds reconnect attempts after a broken stream
	// (0 means 3; negative disables resuming).
	MaxResumes int
	// DeadlineMS, when positive, is forwarded as the server-side campaign
	// deadline on every page.
	DeadlineMS int64
}

// Result is a completed campaign fetch.
type Result struct {
	Grid    sweep.Grid
	Units   int
	Lines   []json.RawMessage // raw record lines, canonical order, len == Units
	Resumes int               // streams re-opened after a mid-stream break
	Bytes   int64             // stream bytes received, all pages
}

// WriteArtifact writes the canonical sweep artifact from the streamed
// lines — byte-identical to the file a local sweep of the same grid
// writes.
func (r *Result) WriteArtifact(w io.Writer) error {
	return sweep.WriteJSONLines(w, r.Grid, r.Lines)
}

// Fetch streams the grid through the daemon, transparently resuming from
// the last delivered unit if the stream breaks mid-flight.
func Fetch(opt Options) (*Result, error) {
	units, err := opt.Grid.Units()
	if err != nil {
		return nil, fmt.Errorf("campaign: grid: %w", err)
	}
	hc := opt.HTTP
	if hc == nil {
		hc = NewHTTPClient()
	}
	maxResumes := opt.MaxResumes
	if maxResumes == 0 {
		maxResumes = 3
	}
	if maxResumes < 0 {
		maxResumes = 0
	}

	res := &Result{Grid: opt.Grid, Units: len(units)}
	base := strings.TrimRight(opt.BaseURL, "/")
	cursor := 0
	for {
		page, bytesRead, perr := fetchPage(hc, base, opt.Grid, cursor, opt.DeadlineMS)
		res.Bytes += bytesRead
		if perr != nil && page == nil {
			// Terminal: the daemon answered with a structured refusal or
			// spoke a different protocol. Resuming cannot help.
			return nil, perr
		}
		if page != nil {
			for _, line := range page.lines {
				if cursor >= len(units) {
					return nil, fmt.Errorf("campaign: daemon streamed more records than the grid has units (%d)", len(units))
				}
				var probe struct {
					Key string `json:"key"`
				}
				if err := json.Unmarshal(line, &probe); err != nil || probe.Key != units[cursor].Key() {
					return nil, fmt.Errorf("campaign: unit %d: stream key %q does not match canonical key %q",
						cursor, probe.Key, units[cursor].Key())
				}
				res.Lines = append(res.Lines, line)
				cursor++
			}
			if t := page.trailer; t != nil {
				if t.ErrorKind != "" {
					return nil, fmt.Errorf("campaign: daemon failed at unit %d: %s: %s", t.Unit, t.ErrorKind, t.Error)
				}
				if t.Done {
					if cursor != len(units) {
						return nil, fmt.Errorf("campaign: daemon reported done after %d of %d units", cursor, len(units))
					}
					return res, nil
				}
			}
		}
		// Broken mid-stream (connection dropped, no trailer): resume from
		// the first unit not yet delivered.
		if res.Resumes >= maxResumes {
			return nil, fmt.Errorf("campaign: stream broke %d time(s); giving up at unit %d/%d (last error: %v)",
				res.Resumes+1, cursor, len(units), perr)
		}
		res.Resumes++
	}
}

// page is one /v1/sweep response: validated header, the record lines it
// delivered, and the trailer if the stream completed.
type page struct {
	header  serve.CampaignHeader
	lines   []json.RawMessage
	trailer *serve.CampaignTrailer
}

// fetchPage opens one stream from cursor. A nil page with an error is
// terminal; a non-nil page with nil trailer means the stream broke and
// the caller may resume.
func fetchPage(hc *http.Client, base string, g sweep.Grid, cursor int, deadlineMS int64) (*page, int64, error) {
	body, err := json.Marshal(serve.SweepRequest{Grid: g, Cursor: cursor, DeadlineMS: deadlineMS})
	if err != nil {
		return nil, 0, err
	}
	hr, err := hc.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		// Connection-level failure before any stream: resumable (the
		// daemon may be briefly unreachable), bounded by MaxResumes.
		return &page{}, 0, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		var resp serve.Response
		if derr := json.NewDecoder(hr.Body).Decode(&resp); derr == nil && resp.ErrorKind != "" {
			return nil, 0, fmt.Errorf("campaign: daemon refused (%d): %s: %s", hr.StatusCode, resp.ErrorKind, resp.Error)
		}
		return nil, 0, fmt.Errorf("campaign: daemon refused: HTTP %d", hr.StatusCode)
	}

	var n int64
	sc := bufio.NewScanner(io.TeeReader(hr.Body, countWriter{&n}))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	p := &page{}
	first := true
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			if err := json.Unmarshal(line, &p.header); err != nil || p.header.Schema != serve.CampaignSchema {
				return nil, n, fmt.Errorf("campaign: daemon is not speaking %s (header %q)", serve.CampaignSchema, line)
			}
			if p.header.Cursor != cursor {
				return nil, n, fmt.Errorf("campaign: daemon acknowledged cursor %d, want %d", p.header.Cursor, cursor)
			}
			continue
		}
		if bytes.HasPrefix(line, []byte(`{"key":`)) {
			p.lines = append(p.lines, append([]byte(nil), line...))
			continue
		}
		var t serve.CampaignTrailer
		if err := json.Unmarshal(line, &t); err != nil {
			return nil, n, fmt.Errorf("campaign: undecodable stream line %q", line)
		}
		p.trailer = &t
		break
	}
	if err := sc.Err(); err != nil {
		// The connection died mid-stream; everything scanned so far is
		// intact (complete lines only) and the caller resumes.
		return p, n, err
	}
	if first {
		return p, n, fmt.Errorf("campaign: empty stream")
	}
	return p, n, nil
}

// countWriter tallies bytes flowing through the TeeReader.
type countWriter struct{ n *int64 }

func (c countWriter) Write(b []byte) (int, error) {
	*c.n += int64(len(b))
	return len(b), nil
}

// RunGC asks the daemon for one store-GC cycle (budget 0 uses the
// daemon's configured budget) and returns the report.
func RunGC(hc *http.Client, baseURL string, budget int64) (*artifact.GCReport, error) {
	if hc == nil {
		hc = NewHTTPClient()
	}
	body, err := json.Marshal(struct {
		Budget int64 `json:"budget,omitempty"`
	}{budget})
	if err != nil {
		return nil, err
	}
	hr, err := hc.Post(strings.TrimRight(baseURL, "/")+"/v1/gc", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		var resp serve.Response
		if derr := json.NewDecoder(hr.Body).Decode(&resp); derr == nil && resp.ErrorKind != "" {
			return nil, fmt.Errorf("campaign: gc refused (%d): %s: %s", hr.StatusCode, resp.ErrorKind, resp.Error)
		}
		return nil, fmt.Errorf("campaign: gc refused: HTTP %d", hr.StatusCode)
	}
	var out struct {
		Schema string `json:"schema"`
		artifact.GCReport
	}
	if err := ledger.Decode(hr.Body, serve.GCSchema, &out); err != nil {
		return nil, fmt.Errorf("campaign: gc response: %w", err)
	}
	return &out.GCReport, nil
}
