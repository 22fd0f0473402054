package exact_test

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/refint"
)

// BenchmarkExactProgen runs the exact analysis over the first 12 generated
// ScaleKnobs(1) programs, counting up from seed 1, that the reference
// interpreter runs to an OK outcome (the rule perfbench's progen-analyze
// workload selects its programs by). Each is compiled as that workload
// compiles it and analysed with interprocedural summaries under the E12
// 25M-step budget; compilation is untimed. steps/op is the state-transfer
// count of one pass over the twelve, so a change that alters the fixed
// point shows beside ns/op.
func BenchmarkExactProgen(b *testing.B) {
	type input struct {
		prog *ir.Program
		opt  check.Options
	}
	ccore := core.Config{Mode: core.Unified, StackScalars: true, Check: true}
	var inputs []input
	for seed := int64(1); len(inputs) < 12; seed++ {
		file := progen.Generate(seed, progen.ScaleKnobs(1))
		if _, err := refint.Run(file, refint.Config{}); err != nil {
			continue
		}
		comp, err := core.Compile(ast.Print(file), ccore)
		if err != nil {
			b.Fatalf("seed %d: %v", seed, err)
		}
		inputs = append(inputs, input{comp.Prog,
			check.Options{Unified: true, Interproc: true, SavedRegs: core.SavedRegCounts(comp)}})
	}
	ccfg := cache.DefaultConfig()
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			rep, err := exact.AnalyzeWith(in.prog, ccfg, in.opt, exact.Options{StepBudget: 25_000_000})
			if err != nil {
				b.Fatal(err)
			}
			steps += rep.Steps
		}
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}
