// Command unisweep runs the design-space sweep engine: it expands a grid
// of benchmarks × compiler configs × cache geometries × replacement
// policies × management modes into work units, executes them on a worker
// pool one execution identity (benchmark, compiler, mode) per task — one
// compile and one VM run each, the other geometries replayed from its
// trace — and writes the machine-readable BENCH_sweep.json artifact.
//
// Usage:
//
//	unisweep [-bench a,b,...] [-compilers baseline,optimizing]
//	         [-modes conventional,unified] [-sets 8,16,32,64]
//	         [-ways 1,2,4] [-line 1] [-policies lru,fifo,random]
//	         [-workers N] [-o BENCH_sweep.json] [-resume]
//	         [-json=false] [-list] [-quiet]
//	unisweep -remote URL | -remote-addr-file FILE [grid flags]
//	         [-remote-gc] [-campaign-bench BENCH_campaign.json]
//
// The artifact is byte-identical for any -workers value: units are merged
// in canonical grid order and wall-clock time is excluded from the
// encoding. While running, finished records are streamed to <out>.partial
// (completion order); -resume salvages complete records from both the
// output file and the partial sidecar, re-running only the missing units
// (a partly done identity runs only its missing geometries). The closing
// line reports the pool size used: -workers clipped to the identities run.
//
// With -remote the grid is not executed locally: it is POSTed to a
// unicached daemon's /v1/sweep campaign endpoint, the record stream is
// reassembled (resuming by unit cursor if the connection breaks), and the
// resulting artifact is byte-identical to the local run of the same grid.
// -remote-gc asks the daemon for a store-GC cycle afterwards, and
// -campaign-bench records the transfer as a BENCH_campaign.json artifact.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/ledger"
	"repro/internal/sweep"
)

const tool = "unisweep"

func main() {
	defer cli.Trap(tool)
	var (
		benchList = flag.String("bench", "", "comma-separated benchmarks (default all)")
		compilers = flag.String("compilers", sweep.CompilerBaseline, "comma-separated compiler configs (baseline, optimizing)")
		modes     = flag.String("modes", sweep.ModeConventional+","+sweep.ModeUnified, "comma-separated management modes")
		sets      = flag.String("sets", "8,16,32,64", "comma-separated set counts")
		ways      = flag.String("ways", "1,2,4", "comma-separated associativities")
		line      = flag.String("line", "1", "comma-separated line sizes in words")
		policies  = flag.String("policies", "lru,fifo,random", "comma-separated replacement policies")
		workers   = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		out       = flag.String("o", "BENCH_sweep.json", "output artifact path (- for stdout)")
		resume    = flag.Bool("resume", false, "salvage records from the output file (and its .partial sidecar) and run only missing units")
		asJSON    = flag.Bool("json", true, "write the JSON artifact (false: print a compact table)")
		list      = flag.Bool("list", false, "print the canonical unit keys and exit")
		quiet     = flag.Bool("quiet", false, "suppress per-unit progress lines")

		remote         = flag.String("remote", "", "run the grid through a unicached daemon at this base URL")
		remoteAddrFile = flag.String("remote-addr-file", "", "read the daemon address from this file (unicached -addr-file)")
		remoteGC       = flag.Bool("remote-gc", false, "ask the daemon for a store-GC cycle after the campaign")
		campaignBench  = flag.String("campaign-bench", "", "write a BENCH_campaign.json transfer report here (remote mode)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		cli.Usage(tool+" [flags]", flag.PrintDefaults)
	}

	g := sweep.Grid{
		Benchmarks: splitList(*benchList),
		Compilers:  splitList(*compilers),
		Modes:      splitList(*modes),
		Sets:       splitInts("sets", *sets),
		Ways:       splitInts("ways", *ways),
		LineWords:  splitInts("line", *line),
		Policies:   splitList(*policies),
	}
	if len(g.Benchmarks) == 0 {
		for _, b := range bench.All() {
			g.Benchmarks = append(g.Benchmarks, b.Name)
		}
	}
	units, err := g.Units()
	if err != nil {
		cli.Fatal(tool, "grid", err)
	}

	if *list {
		for _, u := range units {
			fmt.Println(u.Key())
		}
		return
	}

	if *remote != "" || *remoteAddrFile != "" {
		base := strings.TrimRight(*remote, "/")
		if *remoteAddrFile != "" {
			raw, err := os.ReadFile(*remoteAddrFile)
			if err != nil {
				cli.Fatal(tool, "remote-addr-file", err)
			}
			base = "http://" + strings.TrimSpace(string(raw))
		}
		runRemote(base, g, len(units), *out, *remoteGC, *campaignBench)
		return
	}

	opt := sweep.Options{Workers: *workers}
	if *resume && *out != "-" {
		opt.Done = salvage(*out)
		fmt.Fprintf(os.Stderr, "%s: resume: %d/%d units already measured\n", tool, countDone(opt.Done, units), len(units))
	}

	// Stream finished records to a sidecar so a killed sweep is resumable
	// even though the canonical artifact is only written at the end.
	var partial *os.File
	partialPath := *out + ".partial"
	if *out != "-" {
		if partial, err = os.Create(partialPath); err != nil {
			cli.Fatal(tool, "write", err)
		}
	}
	opt.Progress = func(done, total int, r sweep.Record) {
		if partial != nil {
			b, err := r.MarshalLine()
			if err == nil {
				partial.Write(append(b, '\n'))
			}
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%*d/%d] %s dram=%d\n",
				len(strconv.Itoa(total)), done, total, r.Key, r.DRAMWords)
		}
	}

	res, err := sweep.Run(g, opt)
	if err != nil {
		cli.Fatal(tool, "sweep", err)
	}

	if *asJSON {
		if err := ledger.WriteFile(*out, func(w io.Writer) error { return sweep.WriteJSON(w, res.Grid, res.Records) }); err != nil {
			cli.Fatal(tool, "write", err)
		}
	} else {
		printTable(res)
	}
	if partial != nil {
		partial.Close()
		os.Remove(partialPath)
	}
	fmt.Fprintf(os.Stderr, "%s: %d units (%d run, %d resumed) on %d workers in %s\n",
		tool, len(res.Records), res.Ran, len(res.Records)-res.Ran, res.Workers,
		res.Elapsed.Round(time.Millisecond))
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func splitInts(name, s string) []int {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			cli.Fatalf(tool, "flags", "-%s: %q is not an integer", name, f)
		}
		out = append(out, n)
	}
	return out
}

// salvage leniently reads records from a previous (possibly truncated)
// artifact and its partial sidecar. Missing files simply resume nothing.
func salvage(out string) map[string]sweep.Record {
	done := make(map[string]sweep.Record)
	for _, path := range []string{out, out + ".partial"} {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		recs, dropped, err := sweep.ReadRecords(f)
		f.Close()
		if err != nil {
			cli.Fatal(tool, "resume", err)
		}
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "%s: %s: dropped %d damaged record(s) whose key did not re-derive; re-running those units\n",
				tool, path, dropped)
		}
		for k, r := range recs {
			done[k] = r
		}
	}
	return done
}

func countDone(done map[string]sweep.Record, units []sweep.Unit) int {
	n := 0
	for _, u := range units {
		if _, ok := done[u.Key()]; ok {
			n++
		}
	}
	return n
}

// runRemote executes the grid through a daemon's campaign endpoint and
// writes the same canonical artifact a local run would have produced.
func runRemote(base string, g sweep.Grid, units int, out string, gc bool, benchPath string) {
	start := time.Now() //unilint:ok wallclock campaign bench duration; transfer measurement, not part of the sweep artifact
	res, err := campaign.Fetch(campaign.Options{BaseURL: base, Grid: g})
	if err != nil {
		cli.Fatal(tool, "remote", err)
	}
	durMS := time.Since(start).Milliseconds() //unilint:ok wallclock campaign bench duration; transfer measurement, not part of the sweep artifact

	if err := ledger.WriteFile(out, res.WriteArtifact); err != nil {
		cli.Fatal(tool, "write", err)
	}

	b := campaign.NewBench(res, durMS)
	if gc {
		rep, err := campaign.RunGC(nil, base, 0)
		if err != nil {
			cli.Fatal(tool, "remote-gc", err)
		}
		b.GC = rep
		fmt.Fprintf(os.Stderr, "%s: gc: evicted %d entries (%d bytes), %d bytes remain\n",
			tool, rep.EvictedBypass+rep.EvictedLive, rep.EvictedBytes, rep.RemainingBytes)
	}
	if benchPath != "" {
		if err := b.Check(); err != nil {
			cli.Fatal(tool, "campaign-bench", err)
		}
		if err := ledger.WriteFile(benchPath, func(w io.Writer) error { return ledger.WriteIndent(w, b) }); err != nil {
			cli.Fatal(tool, "campaign-bench", err)
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %s\n", tool, benchPath)
	}
	fmt.Fprintf(os.Stderr, "%s: remote: %d units streamed (%d resumes, %d bytes) in %s\n",
		tool, units, res.Resumes, res.Bytes, time.Duration(durMS)*time.Millisecond)
}

func printTable(res *sweep.Result) {
	fmt.Printf("%-55s %12s %10s %10s %12s %8s\n",
		"unit", "refs", "hits", "misses", "dram words", "miss")
	for _, r := range res.Records {
		fmt.Printf("%-55s %12d %10d %10d %12d %7.2f%%\n",
			r.Key, r.Refs, r.Hits, r.Misses, r.DRAMWords, 100*r.MissRatio)
	}
}
