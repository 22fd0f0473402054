package vm

import (
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/progen"
	"repro/internal/refint"
)

// TestRunAllocatesOnTouch: a run pays for the memory it writes, not for
// the whole address space. Every benchmark writes a few thousand words of
// globals and stack out of MemWords' four million, so one vm.Run must
// allocate well under the 32 MiB a flat image would clear.
func TestRunAllocatesOnTouch(t *testing.T) {
	const limit = 1 << 20
	for _, b := range bench.All() {
		comp, err := core.Compile(b.Source, core.Config{Mode: core.Unified})
		if err != nil {
			t.Fatalf("%s: compile: %v", b.Name, err)
		}
		prog, err := codegen.Generate(comp)
		if err != nil {
			t.Fatalf("%s: codegen: %v", b.Name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(prog, Config{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: run: %v", b.Name, err)
		}
		if res.Output != b.Expected {
			t.Fatalf("%s: output %q, want %q", b.Name, res.Output, b.Expected)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("%s: vm.Run allocated %d bytes, want < %d", b.Name, got, limit)
		} else {
			t.Logf("%s: vm.Run allocated %d bytes", b.Name, got)
		}
	}
}

// BenchmarkRunProgen runs the first 12 generated ScaleKnobs(1) programs
// the reference interpreter accepts, compiled in unified mode with stack
// scalars as the progen-analyze workload compiles them, on the default
// machine: one op is one vm.Run of each. Its B/op is dominated by the
// memory image, which is what a run writes rather than MemWords.
func BenchmarkRunProgen(b *testing.B) {
	var progs []*isa.Program
	for seed := int64(1); len(progs) < 12; seed++ {
		file := progen.Generate(seed, progen.ScaleKnobs(1))
		if _, err := refint.Run(file, refint.Config{}); err != nil {
			continue
		}
		comp, err := core.Compile(ast.Print(file), core.Config{Mode: core.Unified, StackScalars: true})
		if err != nil {
			b.Fatalf("seed %d: compile: %v", seed, err)
		}
		prog, err := codegen.Generate(comp)
		if err != nil {
			b.Fatalf("seed %d: codegen: %v", seed, err)
		}
		progs = append(progs, prog)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := Run(p, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
