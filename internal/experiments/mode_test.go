package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/progen"
	"repro/internal/vm"
)

// measuredConfigs are the compiler configurations the measuring paths
// compile, each once: the baseline and optimizing workloads (and the
// sweep's compilers), E6's promotion variants and E8's register palettes.
func measuredConfigs() []core.Config {
	cfgs := []core.Config{
		{StackScalars: true, Check: true},
		{Check: true},
	}
	for _, v := range promotionVariants {
		cfgs = append(cfgs, v.cfg)
	}
	for _, tgt := range regPalettes {
		cfgs = append(cfgs, core.Config{Target: tgt, Check: true})
	}
	seen := map[artifact.Key]bool{}
	var out []core.Config
	for _, cfg := range cfgs {
		cfg.Mode = core.Unified
		if k := artifact.KeyOf("", cfg); !seen[k] {
			seen[k] = true
			out = append(out, cfg)
		}
	}
	return out
}

// modePair compiles src in both modes under cfg.
func modePair(t *testing.T, src string, cfg core.Config) (comps [2]*core.Compilation, progs [2]*isa.Program) {
	t.Helper()
	for i, mode := range []core.Mode{core.Unified, core.Conventional} {
		cfg.Mode = mode
		comp, err := core.Compile(src, cfg)
		if err != nil {
			t.Fatalf("compile %s: %v", mode, err)
		}
		prog, err := codegen.Generate(comp)
		if err != nil {
			t.Fatalf("codegen %s: %v", mode, err)
		}
		comps[i], progs[i] = comp, prog
	}
	return comps, progs
}

// TestConventionalIsUnifiedWithBitsIgnored commits the premise that lets
// every measuring path answer conventional mode with the unified program
// on conventional hardware. For the six benchmarks and a progen window,
// under every configuration of measuredConfigs:
//   - the two modes' machine code differs only in the Bypass and Last
//     bits, and conventional code sets neither;
//   - the conventional static statistics are the unified ones
//     Under(Conventional);
//   - the unified program on conventional hardware returns the
//     conventional program's vm.Result (LRU, FIFO and Random in turn).
//
// If a pass ever makes mode change the shape of the code, this test fails
// first, and such a configuration must go back to a compile per mode.
// puzzle and towers are compared as code only: their runs take most of a
// second each.
func TestConventionalIsUnifiedWithBitsIgnored(t *testing.T) {
	type program struct {
		name, src string
		run       bool
		vcfg      vm.Config
	}
	var programs []program
	for _, b := range bench.All() {
		programs = append(programs, program{b.Name, b.Source, b.Name != "puzzle" && b.Name != "towers", vm.Config{}})
	}
	for seed := int64(1); seed <= 16; seed++ {
		programs = append(programs, program{fmt.Sprintf("progen-%d", seed), progen.Source(seed, progen.DefaultKnobs()),
			true, vm.Config{MemWords: 1 << 16, MaxSteps: 2_000_000}})
	}
	policies := []cache.Policy{cache.LRU, cache.FIFO, cache.Random}
	runs := 0
	for ci, cfg := range measuredConfigs() {
		for pi, p := range programs {
			comps, progs := modePair(t, p.src, cfg)
			name := fmt.Sprintf("%s/config %d", p.name, ci)
			unif, conv := progs[0], progs[1]
			for pc, in := range conv.Instrs {
				if in.Bypass || in.Last {
					t.Errorf("%s: conventional pc %d sets a hint bit: %s", name, pc, &in)
				}
			}
			masked := *unif
			masked.Instrs = slices.Clone(unif.Instrs)
			for i := range masked.Instrs {
				masked.Instrs[i].Bypass, masked.Instrs[i].Last = false, false
			}
			if !reflect.DeepEqual(&masked, conv) {
				t.Errorf("%s: machine code differs beyond the hint bits", name)
			}
			if got, want := comps[0].Stats.Under(core.Conventional), comps[1].Stats; got != want {
				t.Errorf("%s: unified stats Under(Conventional) = %+v, conventional compile %+v", name, got, want)
			}
			if got := comps[0].Stats.Under(core.Unified); got != comps[0].Stats {
				t.Errorf("%s: Under(Unified) changed the stats", name)
			}
			if !p.run {
				continue
			}
			geom := PaperGeometry()
			geom.Policy = policies[(ci+pi)%len(policies)]
			vcfg := p.vcfg
			vcfg.Cache = geom.hardware(core.Conventional)
			ures, uerr := vm.Run(unif, vcfg)
			cres, cerr := vm.Run(conv, vcfg)
			if fmt.Sprint(uerr) != fmt.Sprint(cerr) || !reflect.DeepEqual(ures, cres) {
				t.Errorf("%s/%s: unified program on conventional hardware %+v (%v), conventional program %+v (%v)",
					name, geom.Policy, ures, uerr, cres, cerr)
			}
			runs++
		}
	}
	if runs == 0 {
		t.Fatal("no program ran")
	}
}
