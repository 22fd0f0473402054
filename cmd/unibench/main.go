// Command unibench regenerates the paper's evaluation tables (DESIGN.md's
// experiment index E1–E10) from scratch: it compiles the six benchmarks
// under both management models and both compiler variants, runs them on
// the UM simulator, and prints the paper-style tables.
//
// Usage:
//
//	unibench [-experiment all|fig5|fig5-opt|deadlru|policies|miller|singleuse|
//	          promotion|linesize|regs|deadmode|icache|precision|scaling|resilience]
//	         [-sets N -ways N -line N] [-bench a,b,...] [-json] [-list]
//	         [-scaling-out FILE]
//	unibench -verify FILE...
//
// With -json, experiments backed by Record streams (E1–E6) emit one JSON
// record per line — the same Record schema unisweep writes — instead of
// tables; experiments without a record stream are skipped with a warning.
// All compilations and simulations share one artifact cache, so
// `-experiment all` compiles each (benchmark, config) pair exactly once.
//
// The scaling experiment (E12) runs the exact analysis over the
// twenty-program generated-code campaign — minutes of pure static
// analysis — so, like resilience, it runs only when named explicitly,
// never under `-experiment all`. -scaling-out FILE additionally writes the
// byte-stable BENCH_exact.json artifact.
//
// -verify strictly reads back each named JSON artifact, with the checks
// its schema tag names, and exits 1 on the first that fails them (a lint
// report fails while it holds unsuppressed findings).
//
// The resilience experiment sweeps the fault-injection campaigns of
// internal/experiments over the benchmark suite (optionally restricted
// with -bench) and exits nonzero if any campaign violates the fault
// model: a hint-loss campaign must leave output bit-identical, and a
// data-corrupting campaign must be detected, never silent.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/ledger"
	"repro/internal/lint"
	"repro/internal/serve/loadtest"
	"repro/internal/sweep"
)

const tool = "unibench"

// experiment is one runnable entry of the -experiment dispatch table.
type experiment struct {
	name    string
	table   func() (string, error)
	records func() ([]sweep.Record, error) // nil: no -json support
}

func main() {
	defer cli.Trap(tool)
	exp := flag.String("experiment", "all",
		"experiment: all, fig5, fig5-opt, deadlru, policies, miller, singleuse, promotion, linesize, regs, deadmode, icache, precision, scaling, resilience")
	sets := flag.Int("sets", 32, "cache sets")
	ways := flag.Int("ways", 2, "cache ways")
	line := flag.Int("line", 1, "cache line words")
	benchList := flag.String("bench", "", "comma-separated benchmark subset for -experiment resilience (default all)")
	asJSON := flag.Bool("json", false, "emit Record streams (one JSON record per line) instead of tables")
	scalingOut := flag.String("scaling-out", "", "with -experiment scaling: also write the BENCH_exact.json artifact to FILE")
	list := flag.Bool("list", false, "list experiment names and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to FILE (performance work on the experiment pipeline)")
	verify := flag.Bool("verify", false, "strictly verify the JSON artifacts named as arguments and exit")
	flag.Parse()

	if *verify {
		runVerify(flag.Args())
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			cli.Fatal(tool, "cpuprofile", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			cli.Fatal(tool, "cpuprofile", err)
		}
		defer pprof.StopCPUProfile()
	}

	geom := experiments.CacheGeometry{Sets: *sets, Ways: *ways, LineWords: *line, Policy: cache.LRU}

	// Workload sets are built lazily and at most once; every experiment
	// then draws compilations and simulations from the shared
	// experiments.Artifacts cache.
	built := map[experiments.Compiler][]*experiments.Workload{}
	workloads := func(cc experiments.Compiler) []*experiments.Workload {
		if built[cc] == nil {
			fmt.Fprintf(os.Stderr, "building %s-compiler workloads...\n", cc)
			ws, err := experiments.BuildAll(geom, cc)
			if err != nil {
				cli.Fatal(tool, "build", err)
			}
			built[cc] = ws
		}
		return built[cc]
	}
	baseWs := func() []*experiments.Workload { return workloads(experiments.Baseline) }
	optWs := func() []*experiments.Workload { return workloads(experiments.Optimizing) }

	table := []experiment{
		{name: "fig5",
			table:   func() (string, error) { return experiments.Fig5(baseWs(), geom).String(), nil },
			records: func() ([]sweep.Record, error) { return experiments.RecordsWorkloads(baseWs()), nil }},
		{name: "fig5-opt",
			table:   func() (string, error) { return experiments.Fig5(optWs(), geom).String(), nil },
			records: func() ([]sweep.Record, error) { return experiments.RecordsWorkloads(optWs()), nil }},
		{name: "deadlru",
			table: func() (string, error) {
				t, err := experiments.DeadLRU(baseWs(), deadLRUSizes)
				return t.String(), err
			},
			records: func() ([]sweep.Record, error) { return experiments.RecordsDeadLRU(baseWs(), deadLRUSizes) }},
		{name: "policies",
			table: func() (string, error) {
				t, err := experiments.Policies(baseWs(), geom)
				return t.String(), err
			},
			records: func() ([]sweep.Record, error) { return experiments.RecordsPolicies(baseWs(), geom) }},
		{name: "miller",
			table:   func() (string, error) { return experiments.Miller(baseWs()).String(), nil },
			records: func() ([]sweep.Record, error) { return experiments.RecordsWorkloads(baseWs()), nil }},
		{name: "singleuse",
			table:   func() (string, error) { return experiments.SingleUse(baseWs()).String(), nil },
			records: func() ([]sweep.Record, error) { return experiments.RecordsWorkloads(baseWs()), nil }},
		{name: "promotion",
			table: func() (string, error) {
				t, err := experiments.Promotion(geom)
				return t.String(), err
			},
			records: func() ([]sweep.Record, error) { return experiments.RecordsPromotion(geom) }},
		{name: "linesize", table: func() (string, error) {
			t, err := experiments.LineSize(baseWs(), geom)
			return t.String(), err
		}},
		{name: "regs", table: func() (string, error) {
			t, err := experiments.RegPressure(geom)
			return t.String(), err
		}},
		{name: "deadmode", table: func() (string, error) {
			t, err := experiments.DeadMode(baseWs(), geom)
			return t.String(), err
		}},
		{name: "icache", table: func() (string, error) {
			t, err := experiments.ICache(geom)
			return t.String(), err
		}},
		{name: "precision",
			table: func() (string, error) {
				t, err := experiments.Precision()
				return t.String(), err
			},
			records: experiments.RecordsPrecision},
	}

	if *list {
		for _, e := range table {
			fmt.Println(e.name)
		}
		fmt.Println("scaling")
		fmt.Println("resilience")
		return
	}

	// Resilience is a pass/fail sweep, not a table over prebuilt
	// workloads; handle it before the table dispatch.
	if *exp == "resilience" {
		if *asJSON {
			cli.Fatalf(tool, "flags", "resilience has no record stream; run it without -json")
		}
		runResilience(*benchList)
		return
	}

	// Scaling (E12) is minutes of static analysis over generated programs;
	// it runs only when named, never under "all".
	if *exp == "scaling" {
		runScaling(*asJSON, *scalingOut)
		return
	}

	var selected []experiment
	for _, e := range table {
		if *exp == "all" || *exp == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		cli.Fatalf(tool, "flags", "unknown experiment %q (use -list)", *exp)
	}

	// With -json and -experiment all, experiments sharing a stream (fig5/
	// miller/singleuse) would triple-emit it; emit each distinct stream once.
	emitted := map[string]bool{}
	runOne := func(e experiment) {
		if !*asJSON {
			s, err := e.table()
			if err != nil {
				cli.Fatal(tool, "experiment", err)
			}
			fmt.Println(s)
			return
		}
		if e.records == nil {
			fmt.Fprintf(os.Stderr, "%s: %s has no record stream yet; skipping (re-run without -json for the table)\n", tool, e.name)
			return
		}
		recs, err := e.records()
		if err != nil {
			cli.Fatal(tool, "experiment", err)
		}
		if len(recs) == 0 {
			return
		}
		stream := recs[0].Experiment + "/" + recs[0].Compiler
		if emitted[stream] {
			return
		}
		emitted[stream] = true
		printRecords(recs)
	}
	for _, e := range selected {
		runOne(e)
	}
}

// deadLRUSizes are the fully-associative cache sizes E2 measures.
var deadLRUSizes = []int{16, 32, 64, 128, 256}

// runScaling runs the E12 campaign and optionally writes the
// machine-readable artifact.
func runScaling(asJSON bool, out string) {
	spec := experiments.DefaultScalingSpec()
	recs, err := experiments.RecordsScaling(spec)
	if err != nil {
		cli.Fatal(tool, "scaling", err)
	}
	if out != "" {
		err := ledger.WriteFile(out, func(w io.Writer) error { return experiments.WriteScalingJSON(w, spec, recs) })
		if err != nil {
			cli.Fatal(tool, "scaling", err)
		}
	}
	if asJSON {
		printRecords(recs)
	} else {
		fmt.Print(experiments.ScalingTable{Rows: recs}.String())
	}
}

// printRecords writes a -json record stream: one record per line.
func printRecords(recs []sweep.Record) {
	for _, r := range recs {
		b, err := r.MarshalLine()
		if err != nil {
			cli.Fatal(tool, "json", err)
		}
		fmt.Println(string(b))
	}
}

// runResilience sweeps the default fault campaigns over the selected
// benchmarks and exits nonzero on any fault-model violation.
func runResilience(benchList string) {
	var benches []bench.Benchmark
	if benchList == "" {
		benches = bench.All()
	} else {
		for _, name := range strings.Split(benchList, ",") {
			name = strings.TrimSpace(name)
			b := bench.Get(name)
			if b == nil {
				cli.Fatalf(tool, "flags", "unknown benchmark %q", name)
			}
			benches = append(benches, *b)
		}
	}
	rep, err := experiments.Resilience(benches, nil)
	if err != nil {
		cli.Fatal(tool, "resilience", err)
	}
	fmt.Print(rep.Summary())
	if vs := rep.Violations(); len(vs) > 0 {
		cli.Fatalf(tool, "resilience", "%d campaign violation(s)", len(vs))
	}
	fmt.Printf("resilience: ok (%d campaign runs, 0 violations)\n", len(rep.Results))
}

// verifiers maps each artifact schema to its strict reader.
var verifiers = map[string]func(io.Reader) error{
	sweep.Schema:              func(r io.Reader) error { _, err := sweep.Verify(r); return err },
	experiments.ScalingSchema: func(r io.Reader) error { _, err := experiments.VerifyScaling(r); return err },
	loadtest.BenchSchema:      func(r io.Reader) error { _, err := loadtest.VerifyBench(r); return err },
	campaign.BenchSchema:      func(r io.Reader) error { _, err := campaign.VerifyBench(r); return err },
	lint.Schema: func(r io.Reader) error {
		rep, err := lint.Verify(r)
		if err == nil && rep.Unsuppressed > 0 {
			err = fmt.Errorf("%d unsuppressed findings", rep.Unsuppressed)
		}
		return err
	},
}

// runVerify checks each artifact with the verifier its schema names.
func runVerify(paths []string) {
	if len(paths) == 0 {
		cli.Usage(tool+" -verify FILE...", nil)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			cli.Fatal(tool, "verify", err)
		}
		schema, err := ledger.SchemaOf(data)
		verify := verifiers[schema]
		switch {
		case err != nil:
		case verify == nil:
			err = fmt.Errorf("no verifier for schema %q", schema)
		default:
			err = verify(bytes.NewReader(data))
		}
		if err != nil {
			cli.Fatalf(tool, "verify", "%s: %v", path, err)
		}
		fmt.Printf("%s: ok (%s)\n", path, schema)
	}
}
