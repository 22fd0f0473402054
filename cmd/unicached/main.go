// Command unicached is the hardened compile-and-simulate daemon: an
// HTTP/JSON service over the unicache pipeline with bounded admission,
// per-request deadlines, single-flight dedup backed by an optional
// persistent artifact store, graceful degradation under load (exact
// first, then check, never simulate), per-request panic isolation, and
// drain-based shutdown.
//
// Usage:
//
//	unicached [flags]
//
//	-addr HOST:PORT     listen address (default 127.0.0.1:8347; :0 picks a port)
//	-addr-file FILE     write the bound address to FILE (for :0 discovery)
//	-workers N          worker-pool size (default GOMAXPROCS); a /v1/sweep
//	                    campaign holds at most max(1, N-1) of them
//	-queue N            admission-queue depth (default 4x workers)
//	-cache-dir DIR      persistent artifact store (default: memory-only)
//	-deadline DUR       default per-request deadline (default 10s)
//	-max-deadline DUR   per-request deadline clamp (default 60s)
//	-drain DUR          shutdown drain budget (default 15s)
//	-batch-wait DUR     admission batching window (default 2ms; negative disables)
//	-batch-max N        flush a batch early at N requests (default 16)
//	-store-budget N     store byte budget; GC after campaigns and via /v1/gc
//	-debug              honor fault-injection request fields (load tests, CI)
//
// Endpoints: POST /v1/eval /v1/compile /v1/simulate /v1/check /v1/exact
// /v1/sweep /v1/gc, GET /v1/stats /healthz. The first SIGINT/SIGTERM
// drains gracefully (exit 0); a second one exits immediately (exit 1).
package main

import (
	"context"
	"flag"
	"log"
	"os"

	"repro/internal/cli"
	"repro/internal/serve"
)

const tool = "unicached"

func main() {
	defer cli.Trap(tool)
	addr := flag.String("addr", "127.0.0.1:8347", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission-queue depth (0 = 4x workers)")
	cacheDir := flag.String("cache-dir", "", "persistent artifact store directory (empty = memory-only)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline (0 = 10s)")
	maxDeadline := flag.Duration("max-deadline", 0, "per-request deadline clamp (0 = 60s)")
	drain := flag.Duration("drain", 0, "shutdown drain budget (0 = 15s)")
	batchWait := flag.Duration("batch-wait", 0, "admission batching window (0 = 2ms, negative disables)")
	batchMax := flag.Int("batch-max", 0, "flush a batch early at this many requests (0 = 16)")
	storeBudget := flag.Int64("store-budget", 0, "store byte budget for GC (0 = no automatic GC)")
	debug := flag.Bool("debug", false, "honor fault-injection request fields")
	flag.Parse()
	if flag.NArg() != 0 {
		cli.Usage("unicached [flags]", flag.PrintDefaults)
	}

	logger := log.New(os.Stderr, tool+": ", log.LstdFlags)
	srv, err := serve.New(serve.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		DefaultDeadline:  *deadline,
		MaxDeadline:      *maxDeadline,
		DrainDeadline:    *drain,
		BatchMaxWait:     *batchWait,
		BatchMaxSize:     *batchMax,
		StoreBudgetBytes: *storeBudget,
		CacheDir:         *cacheDir,
		Debug:            *debug,
		Logf:             logger.Printf,
	})
	if err != nil {
		cli.Fatal(tool, "serve", err)
	}

	cli.RunDaemon(tool, func(ctx context.Context) error {
		if *addrFile != "" {
			// The listener binds inside ListenAndServe; publish the address
			// as soon as it is known so scripts using :0 can discover it.
			go func() { //unilint:ok goleak bounded by ctx: AwaitAddr returns once the address is known or the daemon is cancelled
				a := srv.AwaitAddr(ctx)
				if a == nil {
					return
				}
				if werr := os.WriteFile(*addrFile, []byte(a.String()+"\n"), 0o666); werr != nil {
					logger.Printf("addr-file: %v", werr)
				}
			}()
			defer os.Remove(*addrFile)
		}
		return srv.ListenAndServe(ctx, *addr)
	})
}
