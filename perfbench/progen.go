package main

import (
	"fmt"
	"math/rand"
	"os"

	"repro/internal/ast"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/progen"
	"repro/internal/refint"
	"repro/internal/vm"
)

// progenPrograms is the size of the program set one pass covers.
const progenPrograms = 48

// exactStepBudget is the E12 scaling campaign's per-program budget.
const exactStepBudget = 25_000_000

// progenCore compiles with the baseline compiler under the paper's
// unified management, Check on; progenCache is the paper's cache.
var (
	progenCore  = core.Config{Mode: core.Unified, StackScalars: true, Check: true}
	progenCache = cache.DefaultConfig()
	progenCheck = check.Options{Unified: true}
)

// progenProgram is one generated input and its reference output.
type progenProgram struct {
	seed int64
	src  string
	want string // refint's output
}

// counter returns a function yielding base+1, base+2, ...
func counter(base int64) func() int64 {
	return func() int64 { base++; return base }
}

// genPrograms takes progen seeds from next and keeps the first n
// ScaleKnobs(1) programs of at most maxBytes of source that the reference
// interpreter runs to an OK outcome; maxBytes 0 means no cap.
func genPrograms(next func() int64, n, maxBytes int) []progenProgram {
	k := progen.ScaleKnobs(1)
	var out []progenProgram
	for len(out) < n {
		s := next()
		file := progen.Generate(s, k)
		src := ast.Print(file)
		if maxBytes > 0 && len(src) > maxBytes {
			continue
		}
		res, err := refint.Run(file, refint.Config{})
		if err != nil {
			continue
		}
		out = append(out, progenProgram{seed: s, src: src, want: res.Output})
	}
	return out
}

// analysis is what one progen-analyze op produced. Every field but err
// and checkErr is a deterministic function of the program.
type analysis struct {
	err          error
	checkErr     error
	output       string
	instructions int64
	total        int
	bypassed     int
	irreducible  int
	steps        int64
	peakWidth    int
	exhausted    bool
}

// progenAnalyze runs a fixed set of programs, the OK ones among progen
// seeds 1, 2, 3, ..., in whole passes; the workload seed orders each pass.
// A fixed set keeps the mixture of program costs, and so every timing, the
// same for every seed.
type progenAnalyze struct {
	progs []progenProgram
	rng   *rand.Rand
}

func setupProgenAnalyze(pr params) (instance, error) {
	p := &progenAnalyze{
		progs: genPrograms(counter(0), progenPrograms, 0),
		rng:   rand.New(rand.NewSource(pr.seed)),
	}
	for i := 0; i < 4; i++ { // warm-up, untimed
		if a := analyze(p.progs[i].src, newTracer(false), -1); a.err != nil {
			return nil, fmt.Errorf("warm-up seed %d: %w", p.progs[i].seed, a.err)
		}
	}
	return p, nil
}

// analyze is one op: compile, generate code, run, check and run the exact
// analysis, each layer called directly.
func analyze(src string, tr *tracer, op int64) analysis {
	var a analysis
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	sp := tr.begin("core", op, root)
	comp, err := core.Compile(src, progenCore)
	tr.end(sp)
	if err != nil {
		a.err = err
		return a
	}
	sp = tr.begin("codegen", op, root)
	prog, err := codegen.Generate(comp)
	tr.end(sp)
	if err != nil {
		a.err = err
		return a
	}
	sp = tr.begin("vm", op, root)
	res, err := vm.Run(prog, vm.Config{Cache: progenCache})
	tr.end(sp)
	if err != nil {
		a.err = err
		return a
	}
	a.output, a.instructions = res.Output, res.Instructions
	sp = tr.begin("check", op, root)
	a.checkErr = check.Program(comp.Prog, progenCheck)
	tr.end(sp)
	sp = tr.begin("exact", op, root)
	rep, err := exact.AnalyzeWith(comp.Prog, progenCache,
		check.Options{Unified: true, Interproc: true, SavedRegs: core.SavedRegCounts(comp)},
		exact.Options{StepBudget: exactStepBudget})
	tr.end(sp)
	if err != nil {
		a.err = err
		return a
	}
	a.total, a.bypassed, a.irreducible = rep.Total, rep.Bypassed, rep.Irreducible
	a.steps, a.peakWidth, a.exhausted = rep.Steps, rep.PeakWidth, rep.Exhausted
	return a
}

// progenRun holds every op's result and program index, in op id order.
type progenRun struct {
	res  []analysis
	prog []int
}

func (p *progenAnalyze) run(seconds float64, tr *tracer) (*outcome, error) {
	out := &progenRun{}
	var order []int
	lat, elapsed := runPasses(len(p.progs), seconds, func(i int, id int64) {
		if i == 0 {
			order = p.rng.Perm(len(p.progs))
		}
		out.prog = append(out.prog, order[i])
		out.res = append(out.res, analyze(p.progs[order[i]].src, tr, id))
	})
	o := &outcome{attempted: int64(len(lat)), lat: lat, elapsed: elapsed, results: out}
	for _, a := range out.res {
		if a.err != nil {
			o.failed++
		}
	}
	return o, nil
}

// verify checks every op's output against refint's, that the verifier
// found nothing, and that every pass agrees with the first; then, once per
// program, that the exact verdicts are sound by the dynamic oracle.
func (p *progenAnalyze) verify(o *outcome) int64 {
	run := o.results.(*progenRun)
	first := make([]int, len(p.progs)) // op index of each program's first op
	for i := range first {
		first[i] = -1
	}
	var wrong int64
	for k, a := range run.res {
		pi := run.prog[k]
		prog := p.progs[pi]
		var err error
		switch {
		case a.err != nil:
			continue // counted as failed already
		case a.output != prog.want:
			err = fmt.Errorf("output %q, want %q", a.output, prog.want)
		case a.checkErr != nil:
			err = a.checkErr
		case first[pi] < 0:
			first[pi] = k
			err = oracle(prog, a)
		case !sameAnalysis(a, run.res[first[pi]]):
			err = fmt.Errorf("op %d differs from op %d on the same program", k, first[pi])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "progen-analyze seed %d: %v\n", prog.seed, err)
			wrong++
		}
	}
	return wrong
}

// sameAnalysis compares the deterministic fields of two ops.
func sameAnalysis(a, b analysis) bool {
	a.err, a.checkErr, b.err, b.checkErr = nil, nil, nil, nil
	return a == b
}

// oracle replays the program on the VM against its static verdicts and
// checks that they are sound and agree with the op's report.
func oracle(p progenProgram, a analysis) error {
	res, err := exact.OracleWith(p.src, progenCore, progenCache, 0,
		exact.Options{StepBudget: exactStepBudget}, true)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if err := res.Err(); err != nil {
		return err
	}
	if res.Output != p.want {
		return fmt.Errorf("oracle output %q, want %q", res.Output, p.want)
	}
	if r := res.Report; r.Irreducible != a.irreducible || r.Steps != a.steps {
		return fmt.Errorf("oracle report differs from the op's (irreducible %d/%d, steps %d/%d)",
			r.Irreducible, a.irreducible, r.Steps, a.steps)
	}
	return nil
}

func (p *progenAnalyze) layers(o *outcome, spans []span, m map[string]float64) {
	run := o.results.(*progenRun)
	n := len(p.progs) // runs are whole passes
	ops := float64(len(run.res))
	self := selfTimes(spans)
	opNS := float64(opTime(spans))
	m["core.ms_per_op"] = float64(self["core"]) / 1e6 / ops
	m["vm.ms_per_op"] = float64(self["vm"]) / 1e6 / ops
	for _, l := range []string{"core", "codegen", "vm", "check", "exact"} {
		m[l+".self_pct"] = pct(float64(self[l]), opNS)
	}
	// Counts over the first pass, which covers every program once: every
	// pass repeats them exactly.
	var instr, steps, peak, exhausted, sites, irreducible float64
	for _, a := range run.res[:n] {
		instr += float64(a.instructions)
		steps += float64(a.steps)
		peak = max(peak, float64(a.peakWidth))
		if a.exhausted {
			exhausted++
		}
		sites += float64(a.total - a.bypassed)
		irreducible += float64(a.irreducible)
	}
	m["vm.instructions_per_op"] = instr / float64(n)
	m["vm.minstr_per_s"] = instr / float64(n) * ops / (float64(self["vm"]) / 1e9) / 1e6
	m["exact.steps_per_op"] = steps / float64(n)
	m["exact.peak_width"] = peak
	m["exact.exhausted_pct"] = pct(exhausted, float64(n))
	m["exact.decided_pct"] = 100 - pct(irreducible, sites)

	m["vm.alloc_mb_per_run"] = allocPerRun(p.progs, progenCore, vm.Config{Cache: progenCache})
}

func (p *progenAnalyze) close() {}
