package sweep

import (
	"testing"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/vm"
)

// TestConventionalUnitsMatchConventionalCompiles: RunGroup answers a
// conventional unit with the unified program on hardware that ignores the
// hint bits. On every conventional unit of a reduced paper grid, that
// answer equals a fresh VM run of the conventional-mode compilation in
// output, instruction, load and store counts and cache statistics, and the
// record equals one built from that run and compilation, static columns
// included. The grid drops puzzle and towers, whose runs take most of a
// second each; BENCH_sweep.json pins their conventional units.
func TestConventionalUnitsMatchConventionalCompiles(t *testing.T) {
	g := PaperGrid()
	g.Benchmarks = []string{"bubble", "intmm", "queen", "sieve"}
	g.Sets, g.Ways = []int{16}, []int{1, 2}
	units, err := g.Units()
	if err != nil {
		t.Fatal(err)
	}
	arts := artifact.New()
	checked := 0
	for _, grp := range Groups(units) {
		recs, err := RunGroup(arts, grp, nil)
		if err != nil {
			t.Fatal(err)
		}
		ucfg := grp[0].CoreConfig()
		ucfg.Mode = core.Unified
		art, err := arts.BuildIR(grp[0].Bench.Source, ucfg)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := core.Compile(grp[0].Bench.Source, grp[0].CoreConfig())
		if err != nil {
			t.Fatal(err)
		}
		prog, err := codegen.Generate(comp)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range grp {
			if u.Mode != ModeConventional {
				continue
			}
			if u.CoreConfig().Mode != core.Conventional {
				t.Fatalf("%s: CoreConfig mode %s", u.Key(), u.CoreConfig().Mode)
			}
			got, err := arts.RunBatch(art, []vm.Config{{Cache: u.CacheConfig()}})
			if err != nil {
				t.Fatal(err)
			}
			want, err := vm.Run(prog, vm.Config{Cache: u.CacheConfig()})
			if err != nil {
				t.Fatal(err)
			}
			if got[0].Output != want.Output || got[0].Instructions != want.Instructions ||
				got[0].Loads != want.Loads || got[0].Stores != want.Stores ||
				got[0].CacheStats != want.CacheStats {
				t.Errorf("%s: RunGroup's run %+v, conventional compile %+v", u.Key(), *got[0], *want)
			}
			rec := u.Record()
			rec.SetStatic(comp.Stats, spilledWebs(&artifact.Artifact{Comp: comp}))
			rec.SetStats(want.CacheStats)
			rec.Instructions = want.Instructions
			if recs[i] != rec {
				t.Errorf("%s: record\n got %+v\nwant %+v", u.Key(), recs[i], rec)
			}
			checked++
		}
	}
	if want := g.Size() / 2; checked != want {
		t.Errorf("checked %d conventional units, want %d", checked, want)
	}
}
