// Command unicall is the client for the unicached daemon.
//
// Usage:
//
//	unicall [flags] compile file.mc      compile tier only
//	unicall [flags] simulate file.mc     simulate (the default verb)
//	unicall [flags] check file.mc        static verifier + cache analysis
//	unicall [flags] exact file.mc        exact per-site hit/miss analysis
//	unicall [flags] eval file.mc         compile + simulate
//	unicall [flags] stats                print the daemon's /v1/stats
//	unicall [flags] health               probe /healthz (exit 1 when down)
//	unicall [flags] gc                   run a store GC cycle (-budget bytes)
//	unicall [flags] loadtest             run the seeded load-test harness
//
//	-s URL            daemon address (default http://127.0.0.1:8347)
//	-addr-file FILE   read the daemon address from FILE (unicached -addr-file)
//	-mode M           unified (default) or conventional
//	-deadline-ms N    per-request deadline
//	-maxsteps N       instruction budget for simulate
//	-n N -c C         repeat the request N times with C concurrent clients
//	-min-dedup N      after -n repeats, require >= N deduplicated responses
//	                  (exit 1 otherwise) — the CI single-flight probe
//	-bench FILE       loadtest: write BENCH_serve.json-format report to FILE
//	                  (unibench -verify reads it back)
//	-requests/-seed   loadtest: size and seed of the mix
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/ledger"
	"repro/internal/serve"
	"repro/internal/serve/loadtest"
)

const tool = "unicall"

// hc is the one HTTP client every verb shares: a tuned transport with
// keep-alives and a deep idle pool, so -n 1000 -c 32 runs over a handful
// of reused connections instead of dialing per request (the default
// transport keeps only two idle connections per host).
var hc = campaign.NewHTTPClient()

func main() {
	defer cli.Trap(tool)
	server := flag.String("s", "http://127.0.0.1:8347", "daemon base URL")
	addrFile := flag.String("addr-file", "", "read the daemon address from this file")
	mode := flag.String("mode", "", "unified (default) or conventional")
	deadlineMS := flag.Int64("deadline-ms", 0, "per-request deadline (0 = server default)")
	maxSteps := flag.Int64("maxsteps", 0, "instruction budget (0 = server default)")
	repeat := flag.Int("n", 1, "send the request this many times")
	conc := flag.Int("c", 1, "concurrent clients for -n")
	minDedup := flag.Int64("min-dedup", -1, "require at least this many deduplicated responses")
	asmOut := flag.Bool("S", false, "include the assembly listing in compile results")
	benchOut := flag.String("bench", "", "loadtest: write the report here")
	requests := flag.Int("requests", 0, "loadtest: total requests (0 = default)")
	seed := flag.Int64("seed", 0, "loadtest: traffic seed (0 = default)")
	gcBudget := flag.Int64("budget", 0, "gc: byte budget (0 = the daemon's configured budget)")
	flag.Parse()

	base := strings.TrimRight(*server, "/")
	if *addrFile != "" {
		raw, err := os.ReadFile(*addrFile)
		if err != nil {
			cli.Fatal(tool, "addr-file", err)
		}
		base = "http://" + strings.TrimSpace(string(raw))
	}

	args := flag.Args()
	verb := "simulate"
	if len(args) > 0 {
		verb = args[0]
		args = args[1:]
	}

	switch verb {
	case "stats":
		get(base + "/v1/stats")
		return
	case "health":
		hr, err := hc.Get(base + "/healthz")
		if err != nil || hr.StatusCode != http.StatusOK {
			cli.Fatalf(tool, "health", "daemon not healthy: %v", err)
		}
		hr.Body.Close()
		fmt.Println("ok")
		return
	case "gc":
		rep, err := campaign.RunGC(hc, base, *gcBudget)
		if err != nil {
			cli.Fatal(tool, "gc", err)
		}
		b, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Println(string(b))
		return
	case "loadtest":
		runLoadtest(base, *requests, *seed, *conc, *benchOut)
		return
	case "compile", "simulate", "check", "exact", "eval":
	default:
		cli.Usage("unicall [flags] compile|simulate|check|exact|eval file.mc | stats | health | gc | loadtest", flag.PrintDefaults)
	}

	if len(args) != 1 {
		cli.Usage("unicall [flags] "+verb+" file.mc", flag.PrintDefaults)
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		cli.Fatal(tool, "read", err)
	}
	req := &serve.Request{
		Source:       string(src),
		Mode:         *mode,
		MaxSteps:     *maxSteps,
		DeadlineMS:   *deadlineMS,
		WantAssembly: *asmOut,
	}
	if verb != "eval" {
		req.Want = []string{verb}
	}

	resp, deduped := send(base, verbPath(verb), req, *repeat, *conc)
	if *minDedup >= 0 && deduped < *minDedup {
		cli.Fatalf(tool, "dedup", "only %d of %d responses were deduplicated (want >= %d)",
			deduped, *repeat, *minDedup)
	}
	print(resp)
	if resp.ErrorKind != "" {
		cli.Fatalf(tool, "request", "%s: %s", resp.ErrorKind, resp.Error)
	}
}

func verbPath(verb string) string {
	if verb == "eval" {
		return "/v1/eval"
	}
	return "/v1/" + verb
}

// send posts the request n times with c concurrent clients, returning the
// last response and the count of deduplicated ones.
func send(base, path string, req *serve.Request, n, c int) (*serve.Response, int64) {
	body, err := json.Marshal(req)
	if err != nil {
		cli.Fatal(tool, "request", err)
	}
	if c < 1 {
		c = 1
	}
	var deduped atomic.Int64
	var mu sync.Mutex
	var last *serve.Response
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range idx {
				hr, err := hc.Post(base+path, "application/json", bytes.NewReader(body))
				if err != nil {
					cli.Fatal(tool, "connect", err)
				}
				var resp serve.Response
				derr := json.NewDecoder(hr.Body).Decode(&resp)
				hr.Body.Close()
				if derr != nil {
					cli.Fatal(tool, "response", derr)
				}
				if resp.Deduped {
					deduped.Add(1)
				}
				mu.Lock()
				last = &resp
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return last, deduped.Load()
}

func runLoadtest(base string, requests int, seed int64, conc int, benchOut string) {
	opt := loadtest.Options{BaseURL: base, Requests: requests, Seed: seed}
	if conc > 1 {
		opt.Concurrency = conc
	}
	rep, err := loadtest.Run(opt)
	if err != nil {
		cli.Fatal(tool, "loadtest", err)
	}
	fmt.Printf("%d requests in %dms: %.0f req/s, p50 %.2fms p99 %.2fms, dedup %d, panics %d/%d isolated (%d shed), transport errors %d\n",
		rep.Requests, rep.DurationMS, rep.Throughput,
		float64(rep.P50NS)/1e6, float64(rep.P99NS)/1e6,
		rep.Deduped, rep.PanicsIsolated, rep.PanicsInjected, rep.PanicsShed, rep.TransportErrors)
	if benchOut != "" {
		if err := rep.Check(); err != nil {
			cli.Fatal(tool, "bench", err)
		}
		if err := ledger.WriteFile(benchOut, func(w io.Writer) error { return ledger.WriteIndent(w, rep) }); err != nil {
			cli.Fatal(tool, "bench", err)
		}
		fmt.Println("wrote", benchOut)
	}
	if rep.TransportErrors > 0 || !rep.HealthyAfter {
		cli.Fatalf(tool, "loadtest", "daemon unhealthy: %d transport errors, healthy=%v",
			rep.TransportErrors, rep.HealthyAfter)
	}
}

func get(url string) {
	hr, err := hc.Get(url)
	if err != nil {
		cli.Fatal(tool, "connect", err)
	}
	defer hr.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(hr.Body); err != nil {
		cli.Fatal(tool, "response", err)
	}
	os.Stdout.Write(buf.Bytes())
}

// print renders a response for humans: program output verbatim, then the
// structured parts as indented JSON on stderr-adjacent lines.
func print(resp *serve.Response) {
	if resp == nil {
		return
	}
	if resp.Simulate != nil {
		fmt.Print(resp.Simulate.Output)
	}
	show := struct {
		ID        string               `json:"id,omitempty"`
		ErrorKind string               `json:"error_kind,omitempty"`
		Error     string               `json:"error,omitempty"`
		Phase     string               `json:"phase,omitempty"`
		Deduped   bool                 `json:"deduped,omitempty"`
		Degraded  []string             `json:"degraded,omitempty"`
		Compile   *serve.CompileResult `json:"compile,omitempty"`
		Simulate  *simSansOutput       `json:"simulate,omitempty"`
		Check     *serve.CheckResult   `json:"check,omitempty"`
		Exact     *serve.ExactResult   `json:"exact,omitempty"`
	}{
		ID: resp.ID, ErrorKind: resp.ErrorKind, Error: resp.Error, Phase: resp.Phase,
		Deduped: resp.Deduped, Degraded: resp.Degraded,
		Compile: resp.Compile, Check: resp.Check, Exact: resp.Exact,
	}
	if resp.Simulate != nil {
		show.Simulate = &simSansOutput{
			Instructions: resp.Simulate.Instructions,
			Loads:        resp.Simulate.Loads,
			Stores:       resp.Simulate.Stores,
			Cache:        resp.Simulate.Cache,
		}
	}
	b, _ := json.MarshalIndent(show, "", "  ")
	fmt.Println(string(b))
}

type simSansOutput struct {
	Instructions int64 `json:"instructions"`
	Loads        int64 `json:"loads"`
	Stores       int64 `json:"stores"`
	Cache        any   `json:"cache"`
}
