package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestCampaignWindowLeavesAWorkerFree pins the campaign window through the
// campaignStart seam: a campaign holds at most max(1, Workers-1) group
// tasks queued or running, so while every admitted group is held on its
// worker an interactive request is still served.
func TestCampaignWindowLeavesAWorkerFree(t *testing.T) {
	grid := sweep.Grid{
		Benchmarks: []string{"queen", "sieve"},
		Compilers:  []string{sweep.CompilerBaseline},
		Modes:      []string{sweep.ModeConventional, sweep.ModeUnified},
		Sets:       []int{8}, Ways: []int{1}, LineWords: []int{1}, Policies: []string{"lru"},
	}
	body, err := json.Marshal(SweepRequest{Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	simulate, err := json.Marshal(&Request{Source: quickSource})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { campaignStart = func(int) {} }()
	for _, workers := range []int{2, 3} {
		window := workers - 1
		started, release := make(chan int), make(chan struct{})
		campaignStart = func(inFlight int) { started <- inFlight; <-release }
		ts := httptest.NewServer(newTestServer(t, Config{Workers: workers}).Handler())
		stream := make(chan []byte, 1)
		go func() {
			hr, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
			if err != nil {
				stream <- []byte(err.Error())
				return
			}
			defer hr.Body.Close()
			b, _ := io.ReadAll(hr.Body)
			stream <- b
		}()
		check := func(inFlight int) {
			if inFlight > window {
				t.Errorf("workers %d: %d group tasks in flight, window is %d", workers, inFlight, window)
			}
		}
		for i := 0; i < window; i++ {
			check(<-started)
		}
		// Every window slot is now held on a worker; one worker is free.
		// The client timeout only bounds a failure: a correct window
		// answers at once.
		hc := &http.Client{Timeout: 10 * time.Second}
		hr, err := hc.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(simulate))
		close(release)
		if err != nil {
			t.Errorf("workers %d: simulate beside a full campaign window: %v", workers, err)
		} else if hr.Body.Close(); hr.StatusCode != http.StatusOK {
			t.Errorf("workers %d: simulate beside a full campaign window: HTTP %d", workers, hr.StatusCode)
		}
		for done := false; !done; {
			select {
			case n := <-started:
				check(n)
			case b := <-stream:
				if !bytes.Contains(b, []byte(`{"done":true,"sent":4}`)) {
					t.Errorf("workers %d: campaign did not complete: %s", workers, b)
				}
				done = true
			}
		}
		ts.Close()
	}
}
