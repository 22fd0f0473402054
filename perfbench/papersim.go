package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/sweep"
	"repro/internal/vm"
)

// paperSimBenchmarks is the bundle. Puzzle and towers are left out: each
// alone costs more than these four together.
var paperSimBenchmarks = []string{"bubble", "intmm", "queen", "sieve"}

// paperSimPolicies are replayed on every trace, at the paper geometry.
var paperSimPolicies = []cache.Policy{cache.LRU, cache.FIFO, cache.Random}

// sweepFile holds the reference records every replay must match.
const sweepFile = "BENCH_sweep.json"

// simUnit is one (benchmark, mode) of the bundle: compiled with the
// baseline compiler and Check on, run on the VM under LRU with a trace
// encoder attached, and the trace replayed under every policy.
type simUnit struct {
	bench bench.Benchmark
	mode  string
	units []sweep.Unit // one per policy, the paper geometry 32 sets × 2 ways × 1-word lines
}

// simResult is what one unit of one op produced.
type simResult struct {
	err          error
	output       string
	instructions int64
	stats        []cache.Stats // per policy
	bytes, refs  int64         // encoded trace size and length
	static       core.StaticStats
	spilled      int
}

type paperSim struct {
	units []simUnit
	want  map[string]sweep.Record // reference records by key
	rng   *rand.Rand              // orders the units of each op
}

func setupPaperSim(pr params) (instance, error) {
	f, err := os.Open(sweepFile)
	if err != nil {
		return nil, fmt.Errorf("reference records: %w", err)
	}
	defer f.Close()
	all, _, err := sweep.ReadRecords(f)
	if err != nil {
		return nil, fmt.Errorf("reference records: %w", err)
	}
	p := &paperSim{want: map[string]sweep.Record{}, rng: rand.New(rand.NewSource(pr.seed))}
	for _, name := range paperSimBenchmarks {
		b := bench.Get(name)
		for _, mode := range []string{sweep.ModeConventional, sweep.ModeUnified} {
			u := simUnit{bench: *b, mode: mode}
			for _, pol := range paperSimPolicies {
				su := sweep.Unit{Bench: *b, Compiler: sweep.CompilerBaseline, Mode: mode,
					Sets: 32, Ways: 2, LineWords: 1, Policy: pol}
				rec, ok := all[su.Key()]
				if !ok {
					return nil, fmt.Errorf("%s has no record %s", sweepFile, su.Key())
				}
				p.want[su.Key()] = rec
				u.units = append(u.units, su)
			}
			p.units = append(p.units, u)
		}
	}
	// Warm up: one untimed bundle.
	for _, u := range p.units {
		if r := runSimUnit(u, newTracer(false), -1, -1); r.err != nil {
			return nil, fmt.Errorf("warm-up %s/%s: %w", u.bench.Name, u.mode, r.err)
		}
	}
	return p, nil
}

// runSimUnit is one unit of the bundle, calling each layer directly.
func runSimUnit(u simUnit, tr *tracer, op int64, parent int) simResult {
	var r simResult
	sp := tr.begin("core", op, parent)
	comp, err := core.Compile(u.bench.Source, u.units[0].CoreConfig())
	tr.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	r.static = comp.Stats
	for _, a := range comp.Allocs {
		r.spilled += a.SpilledWebs
	}
	sp = tr.begin("codegen", op, parent)
	prog, err := codegen.Generate(comp)
	tr.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	enc := replay.NewEncoder()
	sp = tr.begin("vm", op, parent)
	res, err := vm.Run(prog, vm.Config{Cache: u.units[0].CacheConfig(), TraceSink: enc})
	tr.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	trace := enc.Finish()
	r.output, r.instructions = res.Output, res.Instructions
	r.bytes, r.refs = int64(trace.Size()), int64(trace.Len())
	for _, su := range u.units {
		sp = tr.begin("replay", op, parent)
		st, err := replay.Replay(trace, su.CacheConfig(), 1)
		tr.end(sp)
		if err != nil {
			r.err = err
			return r
		}
		r.stats = append(r.stats, st)
	}
	return r
}

// paperSimRun holds the results of every op, in op order, with each op's
// units in the order they ran.
type paperSimRun struct {
	order [][]int // unit indices per op
	res   [][]simResult
}

func (p *paperSim) run(seconds float64, tr *tracer) (*outcome, error) {
	out := &paperSimRun{}
	lat, elapsed := runPasses(1, seconds, func(_ int, id int64) {
		order := p.rng.Perm(len(p.units))
		rs := make([]simResult, len(order))
		root := tr.begin("op", id, -1)
		for k, ui := range order {
			rs[k] = runSimUnit(p.units[ui], tr, id, root)
		}
		tr.end(root)
		out.order = append(out.order, order)
		out.res = append(out.res, rs)
	})
	o := &outcome{attempted: int64(len(lat)), lat: lat, elapsed: elapsed, results: out}
	for _, rs := range out.res {
		for _, r := range rs {
			if r.err != nil {
				o.failed++
				break
			}
		}
	}
	return o, nil
}

// verify checks every unit's output against the benchmark's expected text
// and every replay's statistics against the reference record.
func (p *paperSim) verify(o *outcome) int64 {
	run := o.results.(*paperSimRun)
	var wrong int64
	for k, rs := range run.res {
		for j, r := range rs {
			if r.err != nil {
				continue // counted as failed already
			}
			if err := p.checkUnit(p.units[run.order[k][j]], r); err != nil {
				fmt.Fprintf(os.Stderr, "paper-sim op %d: %v\n", k, err)
				wrong++
				break
			}
		}
	}
	return wrong
}

func (p *paperSim) checkUnit(u simUnit, r simResult) error {
	if r.output != u.bench.Expected {
		return fmt.Errorf("%s/%s output %q, want %q", u.bench.Name, u.mode, r.output, u.bench.Expected)
	}
	for i, su := range u.units {
		got := su.Record()
		got.SetStatic(r.static, r.spilled)
		got.SetStats(r.stats[i])
		got.Instructions = r.instructions
		gl, err := got.MarshalLine()
		if err != nil {
			return err
		}
		wl, err := p.want[su.Key()].MarshalLine()
		if err != nil {
			return err
		}
		if string(gl) != string(wl) {
			return fmt.Errorf("%s:\n got %s\nwant %s", su.Key(), gl, wl)
		}
	}
	return nil
}

func (p *paperSim) layers(o *outcome, spans []span, m map[string]float64) {
	run := o.results.(*paperSimRun)
	ops := float64(len(run.res))
	var instr, bytes, refs float64
	for _, r := range run.res[0] {
		instr += float64(r.instructions)
		bytes += float64(r.bytes)
		refs += float64(r.refs)
	}
	self := selfTimes(spans)
	opNS := float64(opTime(spans))
	m["core.ms_per_op"] = float64(self["core"]) / 1e6 / ops
	m["vm.ms_per_op"] = float64(self["vm"]) / 1e6 / ops
	for _, l := range []string{"core", "codegen", "vm", "replay"} {
		m[l+".self_pct"] = pct(float64(self[l]), opNS)
	}
	m["vm.instructions_per_op"] = instr
	m["vm.minstr_per_s"] = instr * ops / (float64(self["vm"]) / 1e9) / 1e6
	m["replay.bytes_per_ref"] = bytes / refs
	m["replay.mrefs_per_s"] = refs * float64(len(paperSimPolicies)) * ops / (float64(self["replay"]) / 1e9) / 1e6

	// Encoding cost and VM allocation, measured outside the ops: each unit
	// runs on the VM with and without the encoder, three times each, and
	// the fastest of each three counts.
	var withNS, withoutNS, alloc float64
	for _, u := range p.units {
		prog, err := buildProgram(u.bench.Source, u.units[0].CoreConfig())
		if err != nil {
			continue // the ops already reported it
		}
		cfg := vm.Config{Cache: u.units[0].CacheConfig()}
		a, _ := probeRun(prog, cfg)
		without, with := math.Inf(1), math.Inf(1)
		for r := 0; r < 3; r++ {
			_, t := probeRun(prog, cfg)
			without = min(without, t)
			enc := cfg
			enc.TraceSink = replay.NewEncoder()
			_, t = probeRun(prog, enc)
			with = min(with, t)
		}
		withoutNS += without
		withNS += with
		alloc += a
	}
	m["replay.encode_pct"] = pct(max(withNS-withoutNS, 0)*ops, opNS)
	m["vm.alloc_mb_per_run"] = alloc / float64(len(p.units))
}

func (p *paperSim) close() {}
