package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// now is the benchmark's single clock read.
func now() time.Time {
	return time.Now() //unilint:ok wallclock the benchmark measures wall time; no measurement is hashed or stored in an artifact
}

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Op     int64  `json:"op"`     // op id; -1 for work outside the measured ops
}

// tracer holds spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: now()}
}

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name string, op int64, parent int) int {
	if !t.on {
		return -1
	}
	start := now().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	end := now().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of it its children cover. Children of one span may
// overlap (concurrent calls); the covered part is their union, clipped to
// the parent.
func selfTimes(spans []span) map[string]int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += s.End - s.Start - covered(spans, s, children[i])
	}
	return out
}

// covered is the length of the union of the child intervals within p.
func covered(spans []span, p span, kids []int) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, curLo, curHi int64
	curHi = -1
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the spans as JSON lines to dir/name.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
