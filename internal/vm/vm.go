// Package vm interprets UM programs against the cache-fronted memory
// model. It is the measurement harness of the reproduction: it executes
// the compiled benchmarks, feeds every data reference (with its bypass and
// last-reference bits) through internal/cache, and streams the references
// to an optional TraceSink for the trace-driven policy studies.
//
// Instruction fetches go through an optional instruction-cache model
// (Config.ICache); the paper's evaluation concerns the data cache (§5),
// so the default leaves it off.
package vm

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Config controls a run.
type Config struct {
	MemWords int   // memory size in words (default 1<<22)
	MaxSteps int64 // instruction budget (default 2e9)
	Cache    cache.Config

	// TraceSink, when non-nil, observes every executed data reference,
	// in execution order, with its control bits and its dynamic
	// bypass/hit outcome. It is the VM's one per-reference hook:
	// internal/replay's Encoder streams the references into a compact
	// trace, and the static-vs-dynamic oracle (internal/exact) checks
	// verdicts against the outcomes. The artifact cache never memoizes a
	// run whose caller supplies a sink.
	TraceSink TraceSink

	// ICache, when non-nil, models an instruction cache: every fetch is a
	// cached read of the PC (instructions are the paper's third reference
	// class — always through the cache, §4.2). Statistics land in
	// Result.ICacheStats.
	ICache *cache.Config

	// Done, when non-nil, cancels the run when the channel becomes
	// readable (typically a context's Done channel). The loop polls it
	// every cancelCheckMask+1 instructions, so cancellation is prompt
	// without a per-step channel operation; a fired Done surfaces as a
	// structured *CancelError, the wall-clock sibling of BudgetError.
	// Done is not part of a run's identity: the artifact cache ignores it
	// when keying and never memoizes a canceled result.
	Done <-chan struct{}
}

// cancelCheckMask spaces Config.Done polls: the budget check runs every
// instruction, the cancellation check every 4096.
const cancelCheckMask = 1<<12 - 1

// TraceSink observes the data-reference stream during execution.
// Implementations must be cheap: the VM calls Ref inline on every load
// and store.
type TraceSink interface {
	Ref(RefEvent)
}

// RefEvent is one executed data reference, as observed by a TraceSink:
// the trace record the instruction issued plus where it came from and
// what the cache did with it.
type RefEvent struct {
	trace.Rec
	PC       int  // program counter of the LW/SW
	Bypassed bool // the reference skipped the cache (bypass bit set and honored)
	Hit      bool // through-cache reference that hit (false for bypassed refs)
}

// Normalized returns the configuration with the defaults Run applies
// filled in: two configurations with equal Normalized values produce
// identical runs. Callers that key on a Config (the artifact run cache)
// must normalize first so zero values and explicit defaults coincide.
func (c Config) Normalized() Config {
	if c.MemWords == 0 {
		c.MemWords = 1 << 22
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 2_000_000_000
	}
	if c.Cache.Sets == 0 {
		c.Cache = cache.DefaultConfig()
	}
	return c
}

// Result is the outcome of a run.
type Result struct {
	Output       string
	Instructions int64
	Loads        int64
	Stores       int64
	CacheStats   cache.Stats
	FaultStats   cache.FaultStats // detection-layer counters (fault campaigns)
	ICacheStats  *cache.Stats     // set when Config.ICache was provided
}

// BudgetError reports that the instruction budget ran out before HALT. It
// carries the faulting program counter and (when label information allows)
// the enclosing function, so tools can say where the program was spinning.
type BudgetError struct {
	Limit int64  // the exhausted MaxSteps budget
	PC    int    // program counter at exhaustion
	Func  string // enclosing function label, "" if unknown
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("vm: step budget (%d instructions) exhausted at %s",
		e.Limit, site(e.PC, e.Func))
}

// CancelError reports that the run was stopped through Config.Done before
// reaching HALT — a deadline or shutdown, not a property of the program.
// Unlike BudgetError it is nondeterministic (where the run was when the
// channel fired depends on wall clock), so it must never be memoized.
type CancelError struct {
	Steps int64  // instructions executed when cancellation was observed
	PC    int    // program counter at cancellation
	Func  string // enclosing function label, "" if unknown
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("vm: run canceled at %s after %d instructions",
		site(e.PC, e.Func), e.Steps)
}

// site renders "pc N" or "pc N (in func)" for error messages.
func site(pc int, fn string) string {
	if fn == "" {
		return fmt.Sprintf("pc %d", pc)
	}
	return fmt.Sprintf("pc %d (in %s)", pc, fn)
}

// DynamicBypassPercent is the runtime fraction of data references marked
// unambiguous (the quantity of Figure 5's "runtime" series).
func (r *Result) DynamicBypassPercent() float64 {
	if r.CacheStats.Refs == 0 {
		return 0
	}
	return 100 * float64(r.CacheStats.BypassRefs) / float64(r.CacheStats.Refs)
}

// Run executes the program until HALT.
//
// Run never mutates p: all machine state (registers, memory, cache,
// statistics) lives in the run itself, so any number of simulations of the
// same *Program may execute concurrently — the property the sweep engine's
// worker pool relies on, verified under -race by TestConcurrentRunsShareProgram.
//
// A run that ends in a detected data fault (an error wrapping
// *cache.FaultError) returns a partial Result beside the error: its
// CacheStats and FaultStats as of the fault, which is what a fault
// campaign reports; every other field is zero. Any other error returns
// a nil Result.
func Run(p *isa.Program, cfg Config) (*Result, error) {
	cfg = cfg.Normalized()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mem, err := cache.NewMemory(cfg.MemWords, cfg.Cache)
	if err != nil {
		return nil, err
	}
	res, err := execute(p, cfg, mem)
	var fe *cache.FaultError
	if errors.As(err, &fe) {
		return &Result{CacheStats: mem.Stats(), FaultStats: mem.FaultStats()}, err
	}
	return res, err
}

// execute runs the validated program on mem until HALT or an error.
func execute(p *isa.Program, cfg Config, mem *cache.Memory) (*Result, error) {
	var err error
	for addr, v := range p.GlobalInit {
		mem.Poke(addr, v)
	}
	var imem *cache.Memory
	if cfg.ICache != nil {
		icfg := *cfg.ICache
		icfg.HonorBypass = false // instructions always use the cache
		// Round the instruction space up to a whole number of lines.
		words := (len(p.Instrs) + icfg.LineWords - 1) / icfg.LineWords * icfg.LineWords
		imem, err = cache.NewMemory(words, icfg)
		if err != nil {
			return nil, fmt.Errorf("vm: icache: %w", err)
		}
	}

	var regs [isa.NumRegs]int64
	regs[isa.SP] = int64(cfg.MemWords)

	res := &Result{}
	var out strings.Builder
	pc := p.Entry
	n := len(p.Instrs)

	// Hot-loop locals: the counters live in registers and land in res at
	// HALT (error returns discard res), and the config fields consulted
	// per instruction don't re-read the struct.
	var instructions, loads, stores int64
	maxSteps := cfg.MaxSteps
	memWords := int64(cfg.MemWords)
	done := cfg.Done
	sink := cfg.TraceSink
	honorBypass := cfg.Cache.HonorBypass
	// hits is the data cache's hit counter as of the sink's previous
	// event: a reference hit exactly when it moved the counter.
	var hits int64
	for steps := int64(0); ; steps++ {
		if steps >= maxSteps {
			return nil, &BudgetError{Limit: maxSteps, PC: pc, Func: p.FuncAt(pc)}
		}
		if done != nil && steps&cancelCheckMask == 0 {
			select {
			case <-done:
				return nil, &CancelError{Steps: steps, PC: pc, Func: p.FuncAt(pc)}
			default:
			}
		}
		if pc < 0 || pc >= n {
			return nil, fmt.Errorf("vm: pc %d out of range", pc)
		}
		in := &p.Instrs[pc]
		instructions++
		if imem != nil {
			imem.Load(int64(pc), false, false)
		}
		next := pc + 1

		switch in.Op {
		case isa.NOP:
		case isa.HALT:
			// Drain dirty lines so end-of-run writeback faults (dropped
			// writebacks, latent ECC damage) are detected, not left latent.
			mem.FlushAll()
			if err := mem.FaultErr(); err != nil {
				return nil, fmt.Errorf("vm: at %s: %w", site(pc, p.FuncAt(pc)), err)
			}
			// A stored result keeps its output: copy it out of the
			// builder so that the builder's spare capacity is not kept.
			res.Output = strings.Clone(out.String())
			res.Instructions = instructions
			res.Loads = loads
			res.Stores = stores
			res.CacheStats = mem.Stats()
			res.FaultStats = mem.FaultStats()
			if imem != nil {
				ist := imem.Stats()
				res.ICacheStats = &ist
			}
			return res, nil
		case isa.LI:
			regs[in.Rd] = in.Imm
		case isa.MOVE:
			regs[in.Rd] = regs[in.Rs]
		case isa.ADD:
			regs[in.Rd] = regs[in.Rs] + regs[in.Rt]
		case isa.SUB:
			regs[in.Rd] = regs[in.Rs] - regs[in.Rt]
		case isa.MUL:
			regs[in.Rd] = regs[in.Rs] * regs[in.Rt]
		case isa.DIV:
			if regs[in.Rt] == 0 {
				return nil, fmt.Errorf("vm: division by zero at pc %d", pc)
			}
			// MinInt64 / -1 overflows; the machine wraps (two's
			// complement), it does not trap.
			if regs[in.Rt] == -1 {
				regs[in.Rd] = -regs[in.Rs]
			} else {
				regs[in.Rd] = regs[in.Rs] / regs[in.Rt]
			}
		case isa.REM:
			if regs[in.Rt] == 0 {
				return nil, fmt.Errorf("vm: remainder by zero at pc %d", pc)
			}
			if regs[in.Rt] == -1 {
				regs[in.Rd] = 0
			} else {
				regs[in.Rd] = regs[in.Rs] % regs[in.Rt]
			}
		case isa.AND:
			regs[in.Rd] = regs[in.Rs] & regs[in.Rt]
		case isa.OR:
			regs[in.Rd] = regs[in.Rs] | regs[in.Rt]
		case isa.XOR:
			regs[in.Rd] = regs[in.Rs] ^ regs[in.Rt]
		case isa.SLLV:
			regs[in.Rd] = regs[in.Rs] << uint64(regs[in.Rt]&63)
		case isa.SRAV:
			regs[in.Rd] = regs[in.Rs] >> uint64(regs[in.Rt]&63)
		case isa.SEQ:
			regs[in.Rd] = b2i(regs[in.Rs] == regs[in.Rt])
		case isa.SNE:
			regs[in.Rd] = b2i(regs[in.Rs] != regs[in.Rt])
		case isa.SLT:
			regs[in.Rd] = b2i(regs[in.Rs] < regs[in.Rt])
		case isa.SLE:
			regs[in.Rd] = b2i(regs[in.Rs] <= regs[in.Rt])
		case isa.SGT:
			regs[in.Rd] = b2i(regs[in.Rs] > regs[in.Rt])
		case isa.SGE:
			regs[in.Rd] = b2i(regs[in.Rs] >= regs[in.Rt])
		case isa.NEG:
			regs[in.Rd] = -regs[in.Rs]
		case isa.NOT:
			regs[in.Rd] = b2i(regs[in.Rs] == 0)
		case isa.ADDI:
			regs[in.Rd] = regs[in.Rs] + in.Imm
		case isa.LW:
			addr := regs[in.Rs] + in.Imm
			if addr < 0 || addr >= memWords {
				return nil, fmt.Errorf("vm: load address %d out of range at pc %d (%s)", addr, pc, in)
			}
			regs[in.Rd] = mem.Load(addr, in.Bypass, in.Last)
			if err := mem.FaultErr(); err != nil {
				return nil, fmt.Errorf("vm: at %s: %w", site(pc, p.FuncAt(pc)), err)
			}
			loads++
			if sink != nil {
				h := mem.Hits()
				sink.Ref(RefEvent{Rec: trace.Rec{Addr: addr, Kind: trace.Load, Bypass: in.Bypass, Last: in.Last},
					PC: pc, Bypassed: in.Bypass && honorBypass, Hit: h != hits})
				hits = h
			}
		case isa.SW:
			addr := regs[in.Rs] + in.Imm
			if addr < 0 || addr >= memWords {
				return nil, fmt.Errorf("vm: store address %d out of range at pc %d (%s)", addr, pc, in)
			}
			mem.Store(addr, regs[in.Rt], in.Bypass, in.Last)
			if err := mem.FaultErr(); err != nil {
				return nil, fmt.Errorf("vm: at %s: %w", site(pc, p.FuncAt(pc)), err)
			}
			stores++
			if sink != nil {
				h := mem.Hits()
				sink.Ref(RefEvent{Rec: trace.Rec{Addr: addr, Kind: trace.Store, Bypass: in.Bypass, Last: in.Last},
					PC: pc, Bypassed: in.Bypass && honorBypass, Hit: h != hits})
				hits = h
			}
		case isa.BEQZ:
			if regs[in.Rs] == 0 {
				next = in.Target
			}
		case isa.BNEZ:
			if regs[in.Rs] != 0 {
				next = in.Target
			}
		case isa.J:
			next = in.Target
		case isa.JAL:
			regs[isa.RA] = int64(pc + 1)
			next = in.Target
		case isa.JR:
			next = int(regs[in.Rs])
		case isa.PRINT:
			if in.Imm == 1 {
				out.WriteByte(byte(regs[in.Rs]))
			} else {
				fmt.Fprintf(&out, "%d\n", regs[in.Rs])
			}
		default:
			return nil, fmt.Errorf("vm: unhandled opcode %s at pc %d", in.Op, pc)
		}

		regs[isa.Zero] = 0 // r0 is hardwired
		pc = next
	}
}

func b2i(c bool) int64 {
	if c {
		return 1
	}
	return 0
}
