package vm_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/vm"
)

// recorder is a vm.TraceSink keeping every event.
type recorder struct{ evs []vm.RefEvent }

func (r *recorder) Ref(ev vm.RefEvent) { r.evs = append(r.evs, ev) }

// TestTraceRecording pins the sink's invariants on real benchmarks: one
// event per executed LW/SW, Hit and Bypassed summing to the cache's own
// counters, and the event records equal to what replay.Encoder decodes
// from an identical run.
func TestTraceRecording(t *testing.T) {
	for _, name := range []string{"bubble", "queen"} {
		for _, mode := range []core.Mode{core.Conventional, core.Unified} {
			for _, honor := range []bool{false, true} {
				traceRecording(t, name, mode, honor)
			}
		}
	}
}

func traceRecording(t *testing.T, name string, mode core.Mode, honor bool) {
	t.Helper()
	id := fmt.Sprintf("%s/%s/honor=%v", name, mode, honor)
	comp, err := core.Compile(bench.Get(name).Source, core.Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Generate(comp)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cache.DefaultConfig()
	ccfg.Sets = 8
	ccfg.HonorBypass = honor
	var rec recorder
	res, err := vm.Run(prog, vm.Config{Cache: ccfg, TraceSink: &rec})
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(len(rec.evs)); got != res.Loads+res.Stores {
		t.Errorf("%s: %d events, want loads+stores %d", id, got, res.Loads+res.Stores)
	}
	var hits, bypassed int64
	recs := make(trace.Trace, len(rec.evs))
	for i, ev := range rec.evs {
		if ev.Hit {
			hits++
		}
		if ev.Bypassed {
			bypassed++
		}
		recs[i] = ev.Rec
	}
	st := res.CacheStats
	if hits != st.Hits || bypassed != st.BypassRefs {
		t.Errorf("%s: events count %d hits, %d bypassed; cache counts %d, %d",
			id, hits, bypassed, st.Hits, st.BypassRefs)
	}
	if hits == 0 || hits == st.CachedRefs || (mode == core.Unified && honor) != (bypassed > 0) {
		t.Errorf("%s: degenerate outcome mix (%d hits of %d cached, %d bypassed)",
			id, hits, st.CachedRefs, bypassed)
	}

	enc := replay.NewEncoder()
	if _, err := vm.Run(prog, vm.Config{Cache: ccfg, TraceSink: enc}); err != nil {
		t.Fatal(err)
	}
	if want := enc.Finish().Records(); !reflect.DeepEqual(recs, want) {
		t.Errorf("%s: event records diverge from the encoder's trace", id)
	}
}
