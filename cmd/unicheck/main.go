// Command unicheck is the standalone front end of the internal/check
// static verifier. It compiles each MC program under both management
// models (unified and conventional), runs every pass — structural rules,
// the dead-marking soundness proof, the machine-code bit discipline, the
// must/may LRU cache analysis — and cross-validates the definite cache
// verdicts against the production cache model by replaying the program's
// reference stream (the differential harness).
//
// Usage:
//
//	unicheck [flags] [file.mc ...]
//
// With no files, the built-in benchmark suite is checked. The exit status
// is 1 if any program in any mode produced a violation or a contradiction.
//
//	-sets/-ways/-line   cache geometry for the analysis (default 32/2/1)
//	-maxsteps N         differential-run budget (0 = interpreter default)
//	-exact              also run the exact hit/miss refinement (internal/exact)
//	-interproc          transfer calls through summaries instead of blanket
//	                    clobbering (the interprocedural mode)
//	-oracle             replay the program on the production VM and assert
//	                    every exact verdict against observed hits and misses
//	-bench a,b          restrict the built-in suite to named benchmarks
//	-gen s1,s2,...      also check generated programs for the given progen seeds
//	-gen-scale N        progen.ScaleKnobs factor for -gen (default 1)
//	-v                  print per-site verdicts for every program
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/cli"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/progen"
)

const tool = "unicheck"

func main() {
	defer cli.Trap(tool)
	sets := flag.Int("sets", 32, "cache sets for the analysis")
	ways := flag.Int("ways", 2, "cache associativity for the analysis")
	line := flag.Int("line", 1, "cache line size in words")
	maxSteps := flag.Int64("maxsteps", 0, "differential-run instruction budget; 0 means the interpreter default")
	doExact := flag.Bool("exact", false, "run the exact hit/miss refinement after the must/may prefilter")
	interproc := flag.Bool("interproc", false, "transfer calls through summaries instead of blanket clobbering")
	doOracle := flag.Bool("oracle", false, "replay on the production VM and assert every exact verdict (implies -exact)")
	benchList := flag.String("bench", "", "comma-separated benchmark subset when no files are given (default all)")
	genSeeds := flag.String("gen", "", "comma-separated progen seeds to check as additional programs")
	genScale := flag.Int("gen-scale", 1, "progen.ScaleKnobs factor for -gen")
	verbose := flag.Bool("v", false, "print per-site cache verdicts")
	flag.Parse()

	type program struct{ name, src string }
	var progs []program
	if flag.NArg() == 0 {
		want := map[string]bool{}
		for _, n := range strings.Split(*benchList, ",") {
			if n = strings.TrimSpace(n); n != "" {
				want[n] = true
			}
		}
		filtered := len(want) > 0
		for _, b := range bench.All() {
			if !filtered || want[b.Name] {
				progs = append(progs, program{b.Name, b.Source})
				delete(want, b.Name)
			}
		}
		for n := range want {
			cli.Fatalf(tool, "flags", "unknown benchmark %q", n)
		}
	} else {
		for _, path := range flag.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				cli.Fatal(tool, "read", err)
			}
			name := filepath.Base(path)
			progs = append(progs, program{name, string(src)})
		}
	}
	for _, s := range strings.Split(*genSeeds, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		var seed int64
		if _, err := fmt.Sscanf(s, "%d", &seed); err != nil {
			cli.Fatalf(tool, "flags", "bad -gen seed %q", s)
		}
		name := fmt.Sprintf("gen-%03d", seed)
		progs = append(progs, program{name, progen.Source(seed, progen.ScaleKnobs(*genScale))})
	}

	run := runConfig{
		sets: *sets, ways: *ways, line: *line, maxSteps: *maxSteps,
		exact: *doExact || *doOracle, oracle: *doOracle, verbose: *verbose,
		interproc: *interproc,
	}
	failed := false
	for _, p := range progs {
		for _, mode := range []core.Mode{core.Unified, core.Conventional} {
			if !checkOne(p.name, p.src, mode, run) {
				failed = true
			}
		}
	}
	if failed {
		os.Exit(cli.ExitFail)
	}
}

// runConfig carries the per-invocation knobs to checkOne.
type runConfig struct {
	sets, ways, line int
	maxSteps         int64
	exact            bool
	oracle           bool
	verbose          bool
	interproc        bool
}

// checkOne runs every pass over one program in one mode and reports
// whether it is clean.
func checkOne(name, src string, mode core.Mode, run runConfig) bool {
	sets, ways, line, maxSteps, verbose := run.sets, run.ways, run.line, run.maxSteps, run.verbose
	label := fmt.Sprintf("%-12s %-12s", name, mode)
	// Compile without Check so violations surface here with full detail
	// instead of as a compile error.
	comp, err := core.Compile(src, core.Config{Mode: mode})
	if err != nil {
		fmt.Printf("%s COMPILE FAIL: %v\n", label, err)
		return false
	}
	opt := check.Options{Unified: mode == core.Unified, MaxSteps: maxSteps}
	if run.interproc {
		opt.Interproc = true
		opt.SavedRegs = core.SavedRegCounts(comp)
	}

	vs := check.Structural(comp.Prog, opt)
	vs = append(vs, check.DeadMarking(comp.Prog, opt)...)
	machine, err := codegen.Generate(comp)
	if err != nil {
		fmt.Printf("%s CODEGEN FAIL: %v\n", label, err)
		return false
	}
	vs = append(vs, check.Machine(machine, opt)...)

	ccfg := cache.DefaultConfig()
	if mode == core.Conventional {
		ccfg = cache.ConventionalConfig()
	}
	ccfg.Sets, ccfg.Ways, ccfg.LineWords = sets, ways, line

	diff, err := check.Differential(comp.Prog, ccfg, opt)
	if err != nil {
		fmt.Printf("%s DIFFERENTIAL FAIL: %v\n", label, err)
		return false
	}

	// The exact refinement and its static-vs-dynamic oracle.
	var rep *exact.Report
	oracleLine := ""
	if run.oracle {
		ores, err := exact.OracleWith(src, core.Config{Mode: mode}, ccfg, maxSteps, exact.Options{}, run.interproc)
		if err != nil {
			fmt.Printf("%s ORACLE FAIL: %v\n", label, err)
			return false
		}
		rep = ores.Report
		oracleLine = "; oracle: " + ores.Summary()
		if oerr := ores.Err(); oerr != nil {
			fmt.Printf("%s FAIL  %s\n%v\n", label, oracleLine[2:], oerr)
			return false
		}
	} else if run.exact {
		rep, err = exact.Analyze(comp.Prog, ccfg, opt)
		if err != nil {
			fmt.Printf("%s EXACT FAIL: %v\n", label, err)
			return false
		}
	}
	exactLine := ""
	if rep != nil {
		exactLine = "; exact: " + rep.Summary()
	}

	ok := len(vs) == 0 && diff.ContradictionCount == 0
	status := "ok"
	if !ok {
		status = "FAIL"
	}
	fmt.Printf("%s %-4s  %s; differential: %s%s%s\n", label, status,
		diff.Report.Summary(), diff.Summary(), exactLine, oracleLine)
	for _, v := range vs {
		fmt.Printf("  %s\n", v)
	}
	for _, c := range diff.Contradictions {
		fmt.Printf("  contradiction: %s\n", c)
	}
	if verbose {
		fmt.Print(diff.Report.Report(comp.Prog))
		if rep != nil {
			fmt.Print(rep.Render())
		}
	}
	return ok
}
