// Command unicc is the MC compiler driver: it compiles an MC source file
// through the unified registers/cache management pipeline and prints a
// selected intermediate artifact.
//
// Usage:
//
//	unicc [flags] file.mc
//
//	-mode unified|conventional   management model (default unified)
//	-alloc chaitin|usage         register allocator (default chaitin)
//	-stack                       keep scalars in frame memory (era baseline)
//	-dump tokens|ast|ir|cfg|alias|stats|asm|check
//	                             artifact to print (default asm)
//
// -dump check runs the internal/check static verifier: structural and
// dead-marking passes over the IR, the bit discipline over the machine
// code, the must/may cache analysis, and the differential harness that
// replays the program through the cache model.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/alias"
	"repro/internal/ast"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/cli"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/lexer"
	"repro/internal/parser"
	"repro/internal/regalloc"
	"repro/internal/sem"
	"repro/internal/token"
)

const tool = "unicc"

// validDumps is the closed set of -dump artifact names, in help order.
var validDumps = []string{"tokens", "ast", "ir", "cfg", "alias", "stats", "asm", "check"}

func main() {
	defer cli.Trap(tool)
	mode := flag.String("mode", "unified", "management model: unified or conventional")
	alloc := flag.String("alloc", "chaitin", "register allocator: chaitin or usage")
	stack := flag.Bool("stack", false, "keep scalars in frame memory (baseline compiler)")
	optimize := flag.Bool("O", false, "run the IR optimizer (folding, copy propagation, DCE)")
	promoteG := flag.Bool("promote", false, "register-promote unambiguous globals")
	dump := flag.String("dump", "asm", "artifact: "+strings.Join(validDumps, ", "))
	flag.Parse()

	known := false
	for _, d := range validDumps {
		if *dump == d {
			known = true
			break
		}
	}
	if !known {
		cli.Fatalf(tool, "flags", "unknown dump %q (valid: %s)", *dump, strings.Join(validDumps, ", "))
	}

	if flag.NArg() != 1 {
		cli.Usage("unicc [flags] file.mc", flag.PrintDefaults)
	}
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		cli.Fatal(tool, "read", err)
	}
	src := string(srcBytes)

	switch *dump {
	case "tokens":
		lx := lexer.New(src)
		for {
			t := lx.Next()
			fmt.Printf("%s\t%s\n", t.Pos, t)
			if t.Kind == token.EOF || t.Kind == token.ILLEGAL {
				return
			}
		}
	case "ast":
		file, err := parser.Parse(src)
		if err != nil {
			cli.Fatal(tool, "parse", err)
		}
		fmt.Print(ast.Print(file))
		return
	case "alias":
		file, err := parser.Parse(src)
		if err != nil {
			cli.Fatal(tool, "parse", err)
		}
		info, err := sem.Check(file)
		if err != nil {
			cli.Fatal(tool, "typecheck", err)
		}
		fmt.Print(alias.Analyze(info).Report())
		return
	}

	cfg := core.Config{StackScalars: *stack, Optimize: *optimize, PromoteGlobals: *promoteG}
	m, err := core.ParseMode(*mode)
	if err != nil {
		cli.Fatal(tool, "flags", err)
	}
	cfg.Mode = m
	switch *alloc {
	case "chaitin":
		cfg.Strategy = regalloc.Chaitin
	case "usage":
		cfg.Strategy = regalloc.UsageCount
	default:
		cli.Fatalf(tool, "flags", "unknown allocator %q", *alloc)
	}

	comp, err := core.Compile(src, cfg)
	if err != nil {
		cli.Fatal(tool, "compile", err)
	}
	switch *dump {
	case "ir":
		fmt.Print(comp.Prog.String())
	case "cfg":
		for _, f := range comp.Prog.Funcs {
			fmt.Print(f.Dot())
		}
	case "stats":
		s := comp.Stats
		fmt.Printf("mode:           %s\n", cfg.Mode)
		fmt.Printf("sites:          %d (%d loads, %d stores)\n", s.Sites, s.Loads, s.Stores)
		fmt.Printf("bypass sites:   %d (%.1f%%)\n", s.Bypass, s.PercentBypass())
		fmt.Printf("cached sites:   %d\n", s.Cached)
		fmt.Printf("ambiguous:      %d\n", s.AmbiguousRef)
		fmt.Printf("spill stores:   %d\n", s.SpillStores)
		fmt.Printf("spill reloads:  %d\n", s.SpillReloads)
		fmt.Printf("dead-marked:    %d\n", s.LastMarked)
	case "asm":
		prog, err := codegen.Generate(comp)
		if err != nil {
			cli.Fatal(tool, "codegen", err)
		}
		fmt.Print(prog.Listing())
	case "check":
		opt := check.Options{Unified: cfg.Mode == core.Unified}
		vs := check.Structural(comp.Prog, opt)
		vs = append(vs, check.DeadMarking(comp.Prog, opt)...)
		machine, err := codegen.Generate(comp)
		if err != nil {
			cli.Fatal(tool, "codegen", err)
		}
		vs = append(vs, check.Machine(machine, opt)...)
		for _, v := range vs {
			fmt.Println(v)
		}
		ccfg := cache.DefaultConfig()
		if cfg.Mode == core.Conventional {
			ccfg = cache.ConventionalConfig()
		}
		diff, err := check.Differential(comp.Prog, ccfg, opt)
		if err != nil {
			cli.Fatal(tool, "check", err)
		}
		fmt.Print(diff.Report.Report(comp.Prog))
		fmt.Printf("differential: %s\n", diff.Summary())
		if err := diff.Err(); err != nil {
			cli.Fatal(tool, "check", err)
		}
		if len(vs) > 0 {
			cli.Fatalf(tool, "check", "%d violation(s)", len(vs))
		}
		fmt.Println("check: ok")
	}
}
