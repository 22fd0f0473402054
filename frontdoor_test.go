package unicache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestFrontDoorsAgree: the public API and the serving daemon resolve a
// cache spec the same way. For one benchmark, every combination of mode,
// policy, dead-marking and bypass honoring (unset fields included) gives
// equal cache statistics through Program.Run and through /v1/simulate,
// and both refuse the same bad names.
func TestFrontDoorsAgree(t *testing.T) {
	b, err := Benchmark("queen")
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	simulate := func(rq *serve.Request) (int, *serve.Response) {
		t.Helper()
		body, err := json.Marshal(rq)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var resp serve.Response
		if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return hr.StatusCode, &resp
	}

	on, off := true, false
	for _, mode := range []Mode{Unified, Conventional} {
		p, err := Compile(b.Source, &CompileOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		var specs []CacheOptions
		for _, pol := range []string{"lru", "fifo", "random"} {
			for _, dead := range []string{"", "off", "invalidate", "demote"} {
				for _, honor := range []*bool{nil, &on, &off} {
					specs = append(specs, CacheOptions{Sets: 8, Policy: pol, DeadMarking: dead, HonorBypass: honor})
				}
			}
		}
		specs = append(specs, CacheOptions{Policy: "random", Seed: 7}, CacheOptions{})
		for _, spec := range specs {
			name := fmt.Sprintf("%s/%s/dead=%q/seed=%d", mode, spec.Policy, spec.DeadMarking, spec.Seed)
			if spec.HonorBypass != nil {
				name += fmt.Sprintf("/honor=%v", *spec.HonorBypass)
			}
			res, err := p.Run(&RunOptions{Cache: spec})
			if err != nil {
				t.Fatalf("%s: Run: %v", name, err)
			}
			status, resp := simulate(&serve.Request{Source: b.Source, Mode: mode.String(), Cache: spec})
			if status != http.StatusOK || resp.Simulate == nil {
				t.Fatalf("%s: daemon answered %d %s: %s", name, status, resp.ErrorKind, resp.Error)
			}
			// Every spec keeps the default one-word lines.
			if got := convertStats(resp.Simulate.Cache, 1); got != res.Cache {
				t.Errorf("%s: daemon stats %+v, API stats %+v", name, got, res.Cache)
			}
		}

		for _, bad := range []CacheOptions{{Policy: "min"}, {Policy: "plru"}, {DeadMarking: "sometimes"}} {
			if _, err := p.Run(&RunOptions{Cache: bad}); err == nil {
				t.Errorf("%s: Run accepted %+v", mode, bad)
			}
			status, resp := simulate(&serve.Request{Source: b.Source, Mode: mode.String(), Cache: bad})
			if status != http.StatusBadRequest || resp.ErrorKind != serve.KindRequest || resp.Phase != "request" {
				t.Errorf("%s: daemon answered %+v with %d %s/%s, want 400 request/request",
					mode, bad, status, resp.ErrorKind, resp.Phase)
			}
		}
	}
}
