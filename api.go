// Package unicache is a from-scratch reproduction of
//
//	Chi-Hung Chi and Hank Dietz, "Unified Management of Registers and
//	Cache Using Liveness and Cache Bypass", PLDI 1989.
//
// It bundles a complete MC (mini-C) compiler — lexer, parser, type
// checker, three-address IR, liveness/web analysis, Andersen-style alias
// sets, Chaitin graph-coloring register allocation — whose back end
// implements the paper's unified registers/cache management model: every
// load and store carries a cache-bypass bit and a last-reference
// (dead-mark) bit, realizing the four reference flavors Am_LOAD,
// AmSp_STORE, UmAm_LOAD and UmAm_STORE of §4.3. A UM (MIPS-like) machine
// simulator with a parameterized data cache measures the effect.
//
// This package is the public facade; see cmd/unicc, cmd/unisim and
// cmd/unibench for the command-line tools and internal/... for the
// implementation.
package unicache

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ice"
	"repro/internal/irinterp"
	"repro/internal/isa"
	"repro/internal/regalloc"
	"repro/internal/replay"
	"repro/internal/vm"
)

// Mode selects the management model.
type Mode int

// Management modes. The zero value is Unified — the model this library
// exists to provide — so zero-valued CompileOptions do the right thing.
const (
	// Unified is the paper's model: unambiguous references bypass the
	// cache, spills go to cache, last references dead-mark their lines.
	Unified Mode = iota
	// Conventional is the baseline: every reference goes through the
	// cache, no dead marking (ordinary 1980s hardware).
	Conventional
)

func (m Mode) String() string {
	if m == Conventional {
		return "conventional"
	}
	return "unified"
}

// Allocator selects the register-allocation strategy.
type Allocator int

// Allocator strategies.
const (
	// Chaitin is simplify/select graph coloring with spilling [Cha82].
	Chaitin Allocator = iota
	// UsageCount is Freiburghouse's reference-frequency allocator [Fre74].
	UsageCount
)

// CompileOptions controls compilation.
type CompileOptions struct {
	Mode      Mode
	Allocator Allocator
	// StackScalars disables register residency for scalars, reproducing
	// the reference mix of the paper's era compilers (-O0 style).
	StackScalars bool
	// Optimize runs constant folding, branch folding, value numbering,
	// copy propagation and dead-code elimination on the IR before analysis
	// and allocation.
	Optimize bool
	// Inline expands small leaf functions at their call sites, removing
	// per-call frame traffic and widening register promotion's scope.
	Inline bool
	// PromoteGlobals keeps unambiguous scalar globals in a register for
	// the duration of each safe function body (one bypass load at entry,
	// one bypass store at exit) instead of bypassing to memory on every
	// reference.
	PromoteGlobals bool
	// Check runs the internal/check static verifier over the finished IR
	// and the generated machine code, failing compilation on any violation
	// of the bypass/dead-marking discipline.
	Check bool
}

// Program is a compiled MC program ready to run on the UM simulator.
type Program struct {
	comp    *core.Compilation
	machine *isa.Program
	opts    CompileOptions
}

// Compile compiles MC source under the given options (nil means unified
// mode with the Chaitin allocator). Internal panics in any pass are
// recovered into a structured *ice.Error — Compile never crashes the
// process on malformed input.
func Compile(src string, opts *CompileOptions) (_ *Program, err error) {
	defer ice.Guard("compile", &err)
	var o CompileOptions
	if opts != nil {
		o = *opts
	}
	coreMode := core.Unified
	if o.Mode == Conventional {
		coreMode = core.Conventional
	}
	cfg := core.Config{
		Mode:           coreMode,
		Strategy:       regalloc.Strategy(o.Allocator),
		StackScalars:   o.StackScalars,
		Optimize:       o.Optimize,
		Inline:         o.Inline,
		PromoteGlobals: o.PromoteGlobals,
		Check:          o.Check,
	}
	comp, err := core.Compile(src, cfg)
	if err != nil {
		return nil, err
	}
	machine, err := generate(comp)
	if err != nil {
		return nil, err
	}
	if o.Check {
		copt := check.Options{Unified: coreMode == core.Unified}
		if err := check.Error(check.Machine(machine, copt)); err != nil {
			return nil, err
		}
	}
	return &Program{comp: comp, machine: machine, opts: o}, nil
}

// generate wraps codegen.Generate with its own ICE guard so a back-end
// panic is attributed to the codegen phase, not "compile".
func generate(comp *core.Compilation) (_ *isa.Program, err error) {
	defer ice.Guard("codegen", &err)
	return codegen.Generate(comp)
}

// Assembly returns the annotated UM assembly listing; memory operations
// show their unified-management flavor (lw.am / sw.am / lw.um / lw.uml /
// sw.um).
func (p *Program) Assembly() string { return p.machine.Listing() }

// IR returns the annotated intermediate representation.
func (p *Program) IR() string { return p.comp.Prog.String() }

// AliasReport returns the points-to sets and alias sets the compiler
// derived (§4.1 of the paper).
func (p *Program) AliasReport() string { return p.comp.Alias.Report() }

// StaticStats summarizes the compiler's classification of memory
// reference sites.
type StaticStats struct {
	Sites         int // load/store sites emitted
	Loads         int
	Stores        int
	Bypass        int     // sites marked unambiguous (cache bypass)
	Cached        int     // sites through the cache
	SpillStores   int     // register spills (to cache, AmSp_STORE)
	SpillReloads  int     // spill reloads (UmAm_LOAD)
	LastMarked    int     // sites carrying the dead-mark bit
	PercentBypass float64 // Figure 5's "static" series
}

// Static returns the site classification statistics.
func (p *Program) Static() StaticStats {
	s := p.comp.Stats
	return StaticStats{
		Sites:         s.Sites,
		Loads:         s.Loads,
		Stores:        s.Stores,
		Bypass:        s.Bypass,
		Cached:        s.Cached,
		SpillStores:   s.SpillStores,
		SpillReloads:  s.SpillReloads,
		LastMarked:    s.LastMarked,
		PercentBypass: s.PercentBypass(),
	}
}

// CacheOptions parameterizes the simulated data cache. Zero fields keep
// the program's management-mode defaults (see cache.Spec for the names
// and defaults).
type CacheOptions = cache.Spec

// RunOptions controls a simulation run.
type RunOptions struct {
	Cache    CacheOptions
	MemWords int   // memory size (default 4M words)
	MaxSteps int64 // instruction budget (default 2e9)
	// RecordTrace streams the data-reference trace into a compact encoded
	// form (about 2 bytes per reference) kept on the RunResult for Replay.
	RecordTrace bool

	// ICache, when non-nil, models an instruction cache alongside the data
	// cache; its statistics appear in RunResult.ICache.
	ICache *CacheOptions
}

// CacheStats is the word-exact traffic accounting of a run.
type CacheStats struct {
	Refs            int64 // data references issued
	CachedRefs      int64 // through the cache
	BypassRefs      int64 // bypass path (Figure 5's "runtime" series)
	Hits            int64
	Misses          int64
	Fetches         int64 // lines fetched from memory
	Writebacks      int64 // dirty lines written back
	BypassReads     int64 // words read directly from memory
	BypassWrites    int64 // words written directly to memory
	DeadMarks       int64
	DeadDiscards    int64 // dirty lines discarded without writeback
	SingleUseFills  int64
	MemTrafficWords int64 // total cache<->memory words moved
	MissRatio       float64
	PercentBypass   float64 // dynamic share of bypassed references
}

// RunResult is the outcome of a simulation.
type RunResult struct {
	Output       string
	Instructions int64
	Loads        int64
	Stores       int64
	Cache        CacheStats
	ICache       *CacheStats // set when RunOptions.ICache was provided

	enc       *replay.Encoded
	lineWords int
}

// Run executes the program on the UM simulator (nil options = defaults).
// Like Compile, it recovers internal panics into *ice.Error.
func (p *Program) Run(opts *RunOptions) (_ *RunResult, err error) {
	defer ice.Guard("simulate", &err)
	return p.run(opts)
}

// run is the options → vm.Config → RunResult conversion shared by Run and
// RunAssembly.
func (p *Program) run(opts *RunOptions) (*RunResult, error) {
	var o RunOptions
	if opts != nil {
		o = *opts
	}
	base := cache.DefaultConfig()
	if p.opts.Mode == Conventional {
		base = cache.ConventionalConfig()
	}
	ccfg, err := o.Cache.Apply(base)
	if err != nil {
		return nil, err
	}
	vcfg := vm.Config{
		MemWords: o.MemWords,
		MaxSteps: o.MaxSteps,
		Cache:    ccfg,
	}
	var sink *replay.Encoder
	if o.RecordTrace {
		sink = replay.NewEncoder()
		vcfg.TraceSink = sink
	}
	var icfg cache.Config
	if o.ICache != nil {
		icfg, err = o.ICache.Apply(base)
		if err != nil {
			return nil, err
		}
		vcfg.ICache = &icfg
	}
	res, err := vm.Run(p.machine, vcfg)
	if err != nil {
		return nil, err
	}
	out := &RunResult{
		Output:       res.Output,
		Instructions: res.Instructions,
		Loads:        res.Loads,
		Stores:       res.Stores,
		Cache:        convertStats(res.CacheStats, ccfg.LineWords),
		lineWords:    ccfg.LineWords,
	}
	if sink != nil {
		out.enc = sink.Finish()
	}
	if res.ICacheStats != nil {
		ics := convertStats(*res.ICacheStats, icfg.LineWords)
		out.ICache = &ics
	}
	return out, nil
}

func convertStats(s cache.Stats, lineWords int) CacheStats {
	out := CacheStats{
		Refs: s.Refs, CachedRefs: s.CachedRefs, BypassRefs: s.BypassRefs,
		Hits: s.Hits, Misses: s.Misses,
		Fetches: s.Fetches, Writebacks: s.Writebacks,
		BypassReads: s.BypassReads, BypassWrites: s.BypassWrites,
		DeadMarks: s.DeadMarks, DeadDiscards: s.DeadDiscards,
		SingleUseFills:  s.SingleUseFills,
		MemTrafficWords: s.MemTrafficWords(lineWords),
	}
	if s.CachedRefs > 0 {
		out.MissRatio = float64(s.Misses) / float64(s.CachedRefs)
	}
	if s.Refs > 0 {
		out.PercentBypass = 100 * float64(s.BypassRefs) / float64(s.Refs)
	}
	return out
}

// Interpret runs the program's IR on the reference interpreter (no machine
// or cache model) and returns its output. Useful to validate a program
// independent of the simulator.
func (p *Program) Interpret() (_ string, err error) {
	defer ice.Guard("interpret", &err)
	res, err := irinterp.Run(p.comp.Prog, irinterp.Config{})
	if err != nil {
		return "", err
	}
	return res.Output, nil
}

// Replay re-simulates a recorded reference trace under a different cache
// configuration, including policy "min" (Belady's optimal, which needs
// the future knowledge only a trace provides). stripFlags gives the
// conventional-hardware view of the same address stream by disabling
// bypass and dead marking — the replay engine then never consults the
// compiler's control bits, which is equivalent to clearing them.
func (r *RunResult) Replay(opts CacheOptions, stripFlags bool) (_ CacheStats, err error) {
	defer ice.Guard("replay", &err)
	if r.enc == nil {
		return CacheStats{}, fmt.Errorf("unicache: run was not executed with RecordTrace")
	}
	cfg, err := opts.Apply(cache.DefaultConfig()) // "min" allowed: replay has the future
	if err != nil {
		return CacheStats{}, err
	}
	if stripFlags {
		cfg.HonorBypass = false
		cfg.Dead = cache.DeadOff
	}
	st, err := replay.Replay(r.enc, cfg, 1)
	if err != nil {
		return CacheStats{}, err
	}
	return convertStats(st, cfg.LineWords), nil
}

// Comparison is the outcome of CompareTraffic: the paper's headline
// quantities for one program under both management modes.
type Comparison struct {
	Output string // program output (identical across modes by construction)

	StaticPercentBypass  float64 // Figure 5 "static"
	DynamicPercentBypass float64 // Figure 5 "runtime"

	ConventionalRefsToCache int64   // references the cache served, conventional
	UnifiedRefsToCache      int64   // references the cache served, unified
	ReferenceReductionPct   float64 // the paper's "traffic reduction"

	ConventionalDRAMWords int64
	UnifiedDRAMWords      int64
}

// CompareTraffic runs the paper's core measurement for one program. It
// compiles src once, in unified mode, and runs it under ropts and again
// as conventional management: the same hardware with bypass and dead
// marking forced off, which ignores the only bits the modes differ in.
func CompareTraffic(src string, copts *CompileOptions, ropts *RunOptions) (*Comparison, error) {
	var uopts CompileOptions
	if copts != nil {
		uopts = *copts
	}
	uopts.Mode = Unified
	up, err := Compile(src, &uopts)
	if err != nil {
		return nil, err
	}
	ur, err := up.Run(ropts)
	if err != nil {
		return nil, err
	}
	var conv RunOptions
	if ropts != nil {
		conv = *ropts
	}
	conv.Cache.DeadMarking, conv.Cache.HonorBypass = cache.DeadOff.String(), new(bool)
	cr, err := up.Run(&conv)
	if err != nil {
		return nil, err
	}
	if ur.Output != cr.Output {
		return nil, fmt.Errorf("unicache: outputs diverge between modes")
	}
	cmp := &Comparison{
		Output:                  ur.Output,
		StaticPercentBypass:     up.Static().PercentBypass,
		DynamicPercentBypass:    ur.Cache.PercentBypass,
		ConventionalRefsToCache: cr.Cache.CachedRefs,
		UnifiedRefsToCache:      ur.Cache.CachedRefs,
		ConventionalDRAMWords:   cr.Cache.MemTrafficWords,
		UnifiedDRAMWords:        ur.Cache.MemTrafficWords,
	}
	if cmp.ConventionalRefsToCache > 0 {
		cmp.ReferenceReductionPct = 100 *
			float64(cmp.ConventionalRefsToCache-cmp.UnifiedRefsToCache) /
			float64(cmp.ConventionalRefsToCache)
	}
	return cmp, nil
}

// SaveAssembly renders the compiled program, including data directives, in
// the textual UM assembly format accepted by RunAssembly (and by
// cmd/unisim for .s files).
func (p *Program) SaveAssembly() string { return p.machine.Save() }

// RunAssembly assembles UM assembly text (as produced by SaveAssembly) and
// executes it on the simulator. The management mode is encoded in the
// instructions' bypass/last bits; cache defaults honor them.
func RunAssembly(asmText string, opts *RunOptions) (_ *RunResult, err error) {
	defer ice.Guard("assemble", &err)
	prog, err := isa.Assemble(asmText)
	if err != nil {
		return nil, err
	}
	// Default cache: the paper's unified-model configuration.
	return (&Program{machine: prog, opts: CompileOptions{Mode: Unified}}).run(opts)
}
