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
//
// With -json, experiments backed by Record streams (E1–E6) emit one JSON
// record per line — the same Record schema unisweep writes — instead of
// tables; experiments without a record stream are skipped with a warning.
// All compilations and simulations share one artifact cache, so
// `-experiment all` compiles each (benchmark, config) pair exactly once.
//
// The scaling experiment (E12) runs the twenty-program generated-code
// campaign through both exact solvers — several minutes of pure static
// analysis — so, like resilience, it runs only when named explicitly,
// never under `-experiment all`. It exits nonzero if the solvers disagree
// on any verdict; -scaling-out FILE additionally writes the byte-stable
// BENCH_exact.json artifact.
//
// The resilience experiment sweeps the fault-injection campaigns of
// internal/experiments over the benchmark suite (optionally restricted
// with -bench) and exits nonzero if any campaign violates the fault
// model: a hint-loss campaign must leave output bit-identical, and a
// data-corrupting campaign must be detected, never silent.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

const tool = "unibench"

// experiment is one runnable entry of the -experiment dispatch table.
type experiment struct {
	name     string
	usesBase bool // draws on the baseline-compiler workload set
	usesOpt  bool // draws on the optimizing-compiler workload set
	table    func() (string, error)
	records  func() ([]sweep.Record, error) // nil: no -json support
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
	flag.Parse()

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
	var base, opt []*experiments.Workload
	baseWs := func() []*experiments.Workload {
		if base == nil {
			fmt.Fprintln(os.Stderr, "building baseline-compiler workloads...")
			ws, err := experiments.BuildAll(geom, experiments.Baseline)
			if err != nil {
				cli.Fatal(tool, "build", err)
			}
			base = ws
		}
		return base
	}
	optWs := func() []*experiments.Workload {
		if opt == nil {
			fmt.Fprintln(os.Stderr, "building optimizing-compiler workloads...")
			ws, err := experiments.BuildAll(geom, experiments.Optimizing)
			if err != nil {
				cli.Fatal(tool, "build", err)
			}
			opt = ws
		}
		return opt
	}

	table := []experiment{
		{name: "fig5", usesBase: true,
			table:   func() (string, error) { return experiments.Fig5(baseWs(), geom).String(), nil },
			records: func() ([]sweep.Record, error) { return experiments.RecordsWorkloads(baseWs()), nil }},
		{name: "fig5-opt", usesOpt: true,
			table:   func() (string, error) { return experiments.Fig5(optWs(), geom).String(), nil },
			records: func() ([]sweep.Record, error) { return experiments.RecordsWorkloads(optWs()), nil }},
		{name: "deadlru", usesBase: true,
			table: func() (string, error) {
				t, err := experiments.DeadLRU(baseWs(), deadLRUSizes)
				return t.String(), err
			},
			records: func() ([]sweep.Record, error) { return experiments.RecordsDeadLRU(baseWs(), deadLRUSizes) }},
		{name: "policies", usesBase: true,
			table: func() (string, error) {
				t, err := experiments.Policies(baseWs(), geom)
				return t.String(), err
			},
			records: func() ([]sweep.Record, error) { return experiments.RecordsPolicies(baseWs(), geom) }},
		{name: "miller", usesBase: true,
			table:   func() (string, error) { return experiments.Miller(baseWs()).String(), nil },
			records: func() ([]sweep.Record, error) { return experiments.RecordsWorkloads(baseWs()), nil }},
		{name: "singleuse", usesBase: true,
			table:   func() (string, error) { return experiments.SingleUse(baseWs()).String(), nil },
			records: func() ([]sweep.Record, error) { return experiments.RecordsWorkloads(baseWs()), nil }},
		{name: "promotion",
			table: func() (string, error) {
				t, err := experiments.Promotion(geom)
				return t.String(), err
			},
			records: func() ([]sweep.Record, error) { return experiments.RecordsPromotion(geom) }},
		{name: "linesize", usesBase: true, table: func() (string, error) {
			t, err := experiments.LineSize(baseWs(), geom)
			return t.String(), err
		}},
		{name: "regs", table: func() (string, error) {
			t, err := experiments.RegPressure(geom)
			return t.String(), err
		}},
		{name: "deadmode", usesBase: true, table: func() (string, error) {
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
		for _, r := range recs {
			b, err := r.MarshalLine()
			if err != nil {
				cli.Fatal(tool, "experiment", err)
			}
			fmt.Println(string(b))
		}
	}
	for i, e := range selected {
		runOne(e)
		// Release workload sets no later experiment draws on: their
		// recorded reference traces are hundreds of megabytes, and keeping
		// them live for the remaining experiments just grows every GC scan.
		needBase, needOpt := false, false
		for _, later := range selected[i+1:] {
			needBase = needBase || later.usesBase
			needOpt = needOpt || later.usesOpt
		}
		if !needBase {
			base = nil
		}
		if !needOpt {
			opt = nil
		}
	}
}

// deadLRUSizes are the fully-associative cache sizes E2 measures.
var deadLRUSizes = []int{16, 32, 64, 128, 256}

// runScaling runs the E12 campaign, fails on any solver disagreement, and
// optionally writes the machine-readable artifact.
func runScaling(asJSON bool, out string) {
	spec := experiments.DefaultScalingSpec()
	recs, err := experiments.RecordsScaling(spec)
	if err != nil {
		cli.Fatal(tool, "scaling", err)
	}
	t := experiments.ScalingFromRecords(recs)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			cli.Fatal(tool, "scaling", err)
		}
		werr := experiments.WriteScalingJSON(f, spec, recs)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			cli.Fatal(tool, "scaling", werr)
		}
	}
	if asJSON {
		for _, r := range recs {
			b, err := r.MarshalLine()
			if err != nil {
				cli.Fatal(tool, "scaling", err)
			}
			fmt.Println(string(b))
		}
	} else {
		fmt.Print(t.String())
	}
	if bad := t.Mismatches(); len(bad) > 0 {
		cli.Fatalf(tool, "scaling", "solver verdict mismatch on: %s", strings.Join(bad, ", "))
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
