package progen

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/irinterp"
	"repro/internal/parser"
	"repro/internal/refint"
	"repro/internal/regalloc"
	"repro/internal/sem"
	"repro/internal/vm"
)

// TestDeterministic: the same (seed, knobs) pair must always produce the
// same source text — the property that makes failures reproducible from a
// one-line seed.
func TestDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := Source(seed, DefaultKnobs())
		b := Source(seed, DefaultKnobs())
		if a != b {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	if Source(1, DefaultKnobs()) == Source(2, DefaultKnobs()) {
		t.Error("distinct seeds produced identical programs")
	}
}

// TestWellFormed: every generated program must parse and pass semantic
// analysis, and its printed form must round-trip through the printer
// unchanged (so source text is a canonical exchange format).
func TestWellFormed(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		src := Source(seed, DefaultKnobs())
		file, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		if _, err := sem.Check(file); err != nil {
			t.Fatalf("seed %d: sem: %v\n%s", seed, err, src)
		}
		if again := ast.Print(file); again != src {
			t.Fatalf("seed %d: print round-trip changed the program:\n--- first\n%s\n--- second\n%s", seed, src, again)
		}
	}
}

// TestReferenceOutcomes: generated programs must be memory safe by
// construction — the reference interpreter may run out of budget
// (skipped by the harness) but must never report an invalidity like an
// uninitialized read, bad pointer, or out-of-bounds access. Division by
// zero is likewise excluded by construction (denominators are |1). The
// overwhelming majority must terminate within budget, otherwise the
// differential harness would be starved of usable programs.
func TestReferenceOutcomes(t *testing.T) {
	const n = 300
	var ok, budget int
	for seed := int64(0); seed < n; seed++ {
		src := Source(seed, DefaultKnobs())
		file, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		_, err = refint.Run(file, refint.Config{})
		switch {
		case err == nil:
			ok++
		case refint.Invalid(err):
			t.Fatalf("seed %d: generator emitted an invalid program: %v\n%s", seed, err, src)
		default:
			// Budget, div-zero, or stack overflow: all should be
			// impossible by construction except budget.
			re, isRe := err.(*refint.Error)
			if !isRe || re.Kind != refint.ErrBudget {
				t.Fatalf("seed %d: unexpected outcome %v\n%s", seed, err, src)
			}
			budget++
		}
	}
	t.Logf("outcomes over %d seeds: %d ok, %d budget-exhausted", n, ok, budget)
	if ok < n*9/10 {
		t.Errorf("only %d/%d programs terminate within budget; generator too hot for the harness", ok, n)
	}
}

// TestKnobsShapePrograms: extreme knob settings must still be safe and
// visibly change the generated programs.
func TestKnobsShapePrograms(t *testing.T) {
	heavyPtr := DefaultKnobs()
	heavyPtr.PtrDensity = 0.9
	flat := DefaultKnobs()
	flat.MaxNest = 0
	flat.Funcs = 0
	for seed := int64(0); seed < 50; seed++ {
		for name, k := range map[string]Knobs{"heavyPtr": heavyPtr, "flat": flat} {
			src := Source(seed, k)
			file, err := parser.Parse(src)
			if err != nil {
				t.Fatalf("%s seed %d: parse: %v\n%s", name, seed, err, src)
			}
			if _, err := sem.Check(file); err != nil {
				t.Fatalf("%s seed %d: sem: %v\n%s", name, seed, err, src)
			}
			if _, err := refint.Run(file, refint.Config{}); err != nil && refint.Invalid(err) {
				t.Fatalf("%s seed %d: invalid: %v\n%s", name, seed, err, src)
			}
		}
	}
}

// TestOutputNonTrivial: the epilogue must make final global state
// observable, so every program prints at least one line.
func TestOutputNonTrivial(t *testing.T) {
	var printed int
	for seed := int64(0); seed < 50; seed++ {
		file, err := parser.Parse(Source(seed, DefaultKnobs()))
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		res, err := refint.Run(file, refint.Config{})
		if err != nil {
			continue
		}
		if res.Output == "" {
			t.Errorf("seed %d: program produced no output; nothing to compare", seed)
		} else {
			printed++
		}
	}
	if printed == 0 {
		t.Fatal("no seed produced observable output")
	}
}

// TestDifferentialAgainstInterpreter: every generated program must compile
// under every configuration, give the same IR-interpreter output under
// all of them, and give that output again on the simulator with several
// cache geometries.
func TestDifferentialAgainstInterpreter(t *testing.T) {
	const seeds = 60

	tiny := regalloc.Target{CallerSaved: []int{8, 9}, CalleeSaved: []int{16, 17}}
	compileConfigs := []core.Config{
		{Mode: core.Unified},
		{Mode: core.Conventional},
		{Mode: core.Unified, Target: tiny},
		{Mode: core.Unified, StackScalars: true},
		{Mode: core.Conventional, StackScalars: true, Strategy: regalloc.UsageCount},
	}
	cacheConfigs := []cache.Config{
		cache.DefaultConfig(),
		{Sets: 1, Ways: 1, LineWords: 1, Policy: cache.LRU, Dead: cache.DeadInvalidate, HonorBypass: true, Seed: 1},
		{Sets: 4, Ways: 2, LineWords: 4, Policy: cache.FIFO, Dead: cache.DeadDemote, HonorBypass: true, Seed: 2},
	}

	for seed := int64(0); seed < seeds; seed++ {
		src := Source(seed, DefaultKnobs())
		var want string
		for ci, ccfg := range compileConfigs {
			comp, err := core.Compile(src, ccfg)
			if err != nil {
				t.Fatalf("seed %d cfg %d: compile: %v\nsource:\n%s", seed, ci, err, src)
			}
			ref, err := irinterp.Run(comp.Prog, irinterp.Config{})
			if err != nil {
				t.Fatalf("seed %d cfg %d: irinterp: %v\nsource:\n%s", seed, ci, err, src)
			}
			if ci == 0 {
				want = ref.Output
			} else if ref.Output != want {
				t.Fatalf("seed %d cfg %d: interpreter output changed across configs:\n%q vs %q\nsource:\n%s",
					seed, ci, ref.Output, want, src)
			}
			prog, err := codegen.Generate(comp)
			if err != nil {
				t.Fatalf("seed %d cfg %d: codegen: %v\nsource:\n%s", seed, ci, err, src)
			}
			for gi, mcfg := range cacheConfigs {
				res, err := vm.Run(prog, vm.Config{Cache: mcfg})
				if err != nil {
					t.Fatalf("seed %d cfg %d geom %d: vm: %v\nsource:\n%s", seed, ci, gi, err, src)
				}
				if res.Output != want {
					t.Fatalf("seed %d cfg %d geom %d: vm output diverged\nvm:  %q\nref: %q\nsource:\n%s",
						seed, ci, gi, res.Output, want, src)
				}
			}
		}
	}
}
