// Command unisim compiles an MC source file and executes it on the UM
// machine simulator with a parameterized data cache, printing the program
// output followed by the reference and traffic statistics the paper's
// evaluation is built on.
//
// Usage:
//
//	unisim [flags] file.mc      compile and run MC source
//	unisim [flags] file.s       assemble and run saved UM assembly
//	unisim [flags] -benchmark bubble
//
//	-mode unified|conventional    management model (default unified)
//	-stack                        baseline compiler (scalars in memory)
//	-sets/-ways/-line             cache geometry (default 32x2, 1-word lines)
//	-policy lru|fifo|random       replacement policy
//	-dead off|invalidate|demote   dead-marking mode
//	-maxsteps N                   instruction budget (0 = default 2e9)
//	-trace FILE                   write the data-reference trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/ledger"
	"repro/internal/replay"
	"repro/internal/vm"
)

const tool = "unisim"

func main() {
	defer cli.Trap(tool)
	mode := flag.String("mode", "unified", "management model: unified or conventional")
	stack := flag.Bool("stack", false, "baseline compiler (scalars in memory)")
	optimize := flag.Bool("O", false, "run the IR optimizer")
	promoteG := flag.Bool("promote", false, "register-promote unambiguous globals")
	benchName := flag.String("benchmark", "", "run a built-in benchmark instead of a file")
	sets := flag.Int("sets", 32, "cache sets (power of two)")
	ways := flag.Int("ways", 2, "cache associativity")
	line := flag.Int("line", 1, "cache line size in words")
	policy := flag.String("policy", "lru", "replacement policy: lru, fifo, random")
	dead := flag.String("dead", "", "dead marking: off, invalidate, demote (default by mode)")
	maxSteps := flag.Int64("maxsteps", 0, "instruction budget; 0 means the simulator default")
	traceFile := flag.String("trace", "", "write the data reference trace to FILE")
	saveFile := flag.String("save", "", "write the compiled program as UM assembly to FILE")
	flag.Parse()

	var src string
	asmInput := false
	switch {
	case *benchName != "":
		b := bench.Get(*benchName)
		if b == nil {
			cli.Fatalf(tool, "flags", "unknown benchmark %q", *benchName)
		}
		src = b.Source
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			cli.Fatal(tool, "read", err)
		}
		src = string(data)
		asmInput = strings.HasSuffix(flag.Arg(0), ".s")
	default:
		cli.Usage("unisim [flags] file.mc", flag.PrintDefaults)
	}

	cfg := core.Config{StackScalars: *stack, Optimize: *optimize, PromoteGlobals: *promoteG}
	m, err := core.ParseMode(*mode)
	if err != nil {
		cli.Fatal(tool, "flags", err)
	}
	cfg.Mode = m
	base := cache.DefaultConfig()
	if m == core.Conventional {
		base = cache.ConventionalConfig()
	}
	spec := cache.Spec{Sets: *sets, Ways: *ways, LineWords: *line, Policy: *policy, DeadMarking: *dead}
	ccfg, err := spec.Apply(base)
	if err == nil {
		err = ccfg.Validate()
	}
	if err != nil {
		cli.Fatal(tool, "flags", err)
	}

	var prog *isa.Program
	if asmInput {
		prog, err = isa.Assemble(src)
		if err != nil {
			cli.Fatal(tool, "assemble", err)
		}
	} else {
		comp, err := core.Compile(src, cfg)
		if err != nil {
			cli.Fatal(tool, "compile", err)
		}
		prog, err = codegen.Generate(comp)
		if err != nil {
			cli.Fatal(tool, "codegen", err)
		}
	}
	if *saveFile != "" {
		if err := ledger.WriteFile(*saveFile, func(w io.Writer) error { _, err := io.WriteString(w, prog.Save()); return err }); err != nil {
			cli.Fatal(tool, "save", err)
		}
		fmt.Fprintf(os.Stderr, "saved assembly -> %s\n", *saveFile)
	}
	vcfg := vm.Config{Cache: ccfg, MaxSteps: *maxSteps}
	// The trace streams through the compact encoder instead of
	// materializing a record slice; the text file is decoded from it on
	// the way out, so memory stays flat however long the run.
	var sink *replay.Encoder
	if *traceFile != "" {
		sink = replay.NewEncoder()
		vcfg.TraceSink = sink
	}
	res, err := vm.Run(prog, vcfg)
	if err != nil {
		cli.Fatal(tool, "simulate", err)
	}

	fmt.Print(res.Output)
	s := res.CacheStats
	fmt.Println("----------------------------------------")
	fmt.Printf("instructions:    %d\n", res.Instructions)
	fmt.Printf("data refs:       %d (%d loads, %d stores)\n", s.Refs, res.Loads, res.Stores)
	fmt.Printf("cache stream:    %d refs (%.1f%% bypassed)\n", s.CachedRefs,
		100*float64(s.BypassRefs)/maxf(float64(s.Refs), 1))
	fmt.Printf("hits/misses:     %d / %d (miss ratio %.2f%%)\n", s.Hits, s.Misses,
		100*float64(s.Misses)/maxf(float64(s.CachedRefs), 1))
	fmt.Printf("line fetches:    %d\n", s.Fetches)
	fmt.Printf("writebacks:      %d\n", s.Writebacks)
	fmt.Printf("bypass words:    %d read, %d written\n", s.BypassReads, s.BypassWrites)
	fmt.Printf("dead marks:      %d (%d dirty discards)\n", s.DeadMarks, s.DeadDiscards)
	fmt.Printf("DRAM traffic:    %d words\n", s.MemTrafficWords(ccfg.LineWords))

	if sink != nil {
		enc := sink.Finish()
		if err := ledger.WriteFile(*traceFile, enc.WriteText); err != nil {
			cli.Fatal(tool, "trace", err)
		}
		fmt.Printf("trace:           %d records -> %s\n", enc.Len(), *traceFile)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
