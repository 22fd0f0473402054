// Command unilint runs the repository's static-analysis suite
// (internal/lint): five analyzers that machine-check the standing
// invariants — deterministic map emission (detmap), no wall-clock leaks
// (wallclock), seeded randomness (seededrand), the panic-free front door
// (panicguard), and joined goroutines (goleak).
//
// Usage:
//
//	unilint [flags] [packages]
//
// Packages use the familiar pattern syntax ("./...", "./internal/sweep",
// "repro/cmd/..."); with none given, the whole module is analyzed. The
// exit status is 1 when any unsuppressed finding remains. Findings are
// waived in source with `//unilint:ok <analyzer> <reason>` (trailing the
// line, or standalone immediately above it); the reason is mandatory and
// unused suppressions are themselves findings.
//
//	-run a,b     run only the named analyzers (default: all)
//	-json FILE   also write the unicache-lint/v1 artifact ('-' = stdout);
//	             unibench -verify FILE reads it back strictly
//	-list        print the analyzer catalog and exit
//	-suppressed  print suppressed findings too
//	-q           summary line only
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/ledger"
	"repro/internal/lint"
)

const tool = "unilint"

func main() {
	runNames := flag.String("run", "", "comma-separated analyzer subset (default: all)")
	jsonOut := flag.String("json", "", "write the unicache-lint/v1 artifact to this file ('-' = stdout)")
	list := flag.Bool("list", false, "print the analyzer catalog and exit")
	showSup := flag.Bool("suppressed", false, "print suppressed findings too")
	quiet := flag.Bool("q", false, "summary line only")
	flag.Parse()

	if *list {
		for _, az := range lint.All() {
			fmt.Printf("%-12s %s\n", az.Name, az.Doc)
		}
		return
	}

	analyzers := lint.All()
	if *runNames != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*runNames, ",") {
			az := lint.ByName(strings.TrimSpace(name))
			if az == nil {
				cli.Fatal(tool, "run", fmt.Errorf("unknown analyzer %q (see -list)", name))
			}
			analyzers = append(analyzers, az)
		}
	}

	mod, err := lint.LoadModule(".")
	if err != nil {
		cli.Fatal(tool, "load", err)
	}
	pkgs, err := mod.Select(flag.Args())
	if err != nil {
		cli.Fatal(tool, "select", err)
	}
	res := lint.Run(pkgs, analyzers)

	if *jsonOut != "" {
		if err := ledger.WriteFile(*jsonOut, lint.NewReport(mod.Path, res).WriteJSON); err != nil {
			cli.Fatal(tool, "json", err)
		}
	}

	bad := res.Unsuppressed()
	if !*quiet {
		for _, d := range res.Diags {
			if d.Suppressed && !*showSup {
				continue
			}
			fmt.Println(d)
		}
	}
	fmt.Printf("%s: %d packages, %d analyzers: %d findings (%d suppressed, %d unsuppressed)\n",
		tool, res.Packages, len(res.Analyzers), len(res.Diags), res.SuppressedCount(), len(bad))
	if len(bad) > 0 {
		os.Exit(1)
	}
}
