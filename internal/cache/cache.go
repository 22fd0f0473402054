// Package cache implements the data-cache model of the paper: a
// set-associative write-back cache whose replacement policy is augmented
// with the two compiler-supplied control bits of the unified
// registers/cache management model:
//
//   - bypass (§3.2): the reference skips the cache; on a UmAm_LOAD that
//     hits, the datum is read from cache and the line is dead-marked;
//   - last-reference (§3.1): the line holding a value just consumed for
//     the final time is marked empty (or demoted to next-victim), so a
//     dead value never evicts a live one and is never written back.
//
// The model carries data, not just tags: the VM routes every load and
// store through Memory, so a protocol bug (for example dead-marking a
// dirty spill line too early) produces wrong program output and is caught
// by the differential tests against the IR interpreter.
package cache

import (
	"fmt"
	"math/bits"
)

// Policy selects the underlying hardware replacement policy.
type Policy int

// Replacement policies. MIN (Belady) needs future knowledge, so Memory
// cannot execute it; only trace replay (internal/replay) runs it.
const (
	LRU Policy = iota
	FIFO
	Random
	MIN
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	case MIN:
		return "min"
	}
	return "?"
}

// ParsePolicy parses a replacement-policy name as printed by
// Policy.String. "min" parses successfully but only trace replay accepts
// it (Config.Validate rejects it for execution).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "lru":
		return LRU, nil
	case "fifo":
		return FIFO, nil
	case "random":
		return Random, nil
	case "min":
		return MIN, nil
	}
	return 0, fmt.Errorf("cache: unknown policy %q", s)
}

// DeadMode selects how the cache honors the last-reference bit (§3.2
// offers both variants).
type DeadMode int

// Dead-marking modes.
const (
	// DeadOff ignores the last-reference bit (conventional hardware).
	DeadOff DeadMode = iota
	// DeadInvalidate marks the line empty. A dirty single-word line is
	// discarded without writeback (the value is dead by compiler
	// guarantee); with LineWords > 1 a dirty line is demoted instead, since
	// sibling words may still be live.
	DeadInvalidate
	// DeadDemote keeps the line but makes it the preferred victim.
	DeadDemote
)

func (d DeadMode) String() string {
	switch d {
	case DeadOff:
		return "off"
	case DeadInvalidate:
		return "invalidate"
	case DeadDemote:
		return "demote"
	}
	return "?"
}

// ParseDeadMode parses a dead-marking mode name as printed by
// DeadMode.String.
func ParseDeadMode(s string) (DeadMode, error) {
	switch s {
	case "off":
		return DeadOff, nil
	case "invalidate":
		return DeadInvalidate, nil
	case "demote":
		return DeadDemote, nil
	}
	return 0, fmt.Errorf("cache: unknown dead-marking mode %q", s)
}

// ECCMode selects the data-integrity detection layer. The paper treats
// bypass and dead marking as pure performance hints, so the cache must
// degrade gracefully under faults rather than corrupt results silently;
// the ECC layer is what turns "corrupted" into "detected".
type ECCMode int

// ECC modes.
const (
	// ECCOff performs no integrity checking: injected bit flips are
	// silent (the configuration the resilience harness exists to indict).
	ECCOff ECCMode = iota
	// ECCParity keeps one parity bit per cached word, checked on every
	// read and writeback. Detects (odd-count) bit flips; cannot correct.
	ECCParity
	// ECCSECDED models single-error-correct/double-error-detect codes:
	// a one-bit flip in a word is corrected in place and counted; multi-bit
	// damage is detected-uncorrectable.
	ECCSECDED
)

func (e ECCMode) String() string {
	switch e {
	case ECCOff:
		return "off"
	case ECCParity:
		return "parity"
	case ECCSECDED:
		return "secded"
	}
	return "?"
}

// Injector is the cache model's view of a fault injector
// (internal/faults implements it). All hooks must be deterministic for a
// fixed injector state; the cache consults them at well-defined points so
// campaigns are reproducible from a seed.
type Injector interface {
	// BeforeRef fires before every CPU data reference. The injector may
	// fire scheduled faults through the Memory's fault port
	// (InvalidateClean, FlipBit).
	BeforeRef(m *Memory, addr int64, store bool)
	// DropDeadMark reports whether the dead-mark (kill) signal for the
	// line holding addr is lost. Losing a kill is a pure hint loss.
	DropDeadMark(addr int64) bool
	// DropWriteback reports whether the writeback of the dirty line at
	// addr is lost (a data-corrupting fault: memory keeps stale words).
	DropWriteback(addr int64) bool
	// WayStuck reports whether (set, way) is stuck at power-on and can
	// never hold a valid line.
	WayStuck(set, way int) bool
}

// FaultKind classifies a detected data-integrity fault.
type FaultKind int

// Detected fault kinds.
const (
	// FaultECC is a detected-uncorrectable error in cached line data.
	FaultECC FaultKind = iota
	// FaultWritebackLost is a dirty writeback that the memory system
	// reported lost (machine-check style bus error).
	FaultWritebackLost
)

func (k FaultKind) String() string {
	if k == FaultWritebackLost {
		return "writeback-lost"
	}
	return "ecc-uncorrectable"
}

// FaultError is the structured, never-silent report of a detected
// data-integrity fault. It is sticky on the Memory (FaultErr) so the
// simulator can abort the run at the faulting reference.
type FaultError struct {
	Kind  FaultKind
	Addr  int64 // word address of the damaged data
	Dirty bool  // the damaged line was dirty (memory copy also unusable)
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("cache: detected fault: %s at address %d (dirty=%v)", e.Kind, e.Addr, e.Dirty)
}

// FaultStats counts detection-layer events of one run. They are kept
// separate from Stats: they exist only under fault injection and are the
// per-campaign counters of the resilience harness.
type FaultStats struct {
	EccChecks      int64 // words verified against their code
	Detected       int64 // detected-uncorrectable events (run faulted)
	Corrected      int64 // SECDED single-bit corrections
	Retried        int64 // clean-line refetches that repaired a detected error
	WritebacksLost int64 // injected writeback drops signaled as bus faults
	StuckWayRefs   int64 // refs degraded to uncached access (all ways stuck)
}

// Config parameterizes the cache. The paper's evaluation assumes a small
// on-chip data cache with line size one (§1); DefaultConfig matches that.
type Config struct {
	Sets      int // number of sets (power of two)
	Ways      int // associativity
	LineWords int // words per line (1 in the paper)
	Policy    Policy
	Dead      DeadMode
	// HonorBypass: when false the bypass bit is ignored and every
	// reference goes through the cache (conventional hardware).
	HonorBypass bool
	Seed        uint64 // PRNG seed for Random replacement

	// ECC selects the data-integrity detection layer (default off).
	ECC ECCMode
	// ECCRetry repairs a detected error in a clean line by refetching it
	// from memory (clean lines are coherent with memory by construction)
	// instead of raising a fault.
	ECCRetry bool
	// Injector, when non-nil, receives the fault-injection hooks. Only
	// the execution-attached Memory injects faults; trace replay ignores
	// it.
	Injector Injector
}

// DefaultConfig models the paper's small on-chip data cache: 64 one-word
// lines (the paper's line-size-one assumption), 2-way set-associative with
// LRU, bypass honored and dead marking on. Experiments sweep these knobs.
func DefaultConfig() Config {
	return Config{Sets: 32, Ways: 2, LineWords: 1, Policy: LRU,
		Dead: DeadInvalidate, HonorBypass: true, Seed: 1}
}

// ConventionalConfig is the same hardware with the paper's features off.
func ConventionalConfig() Config {
	c := DefaultConfig()
	c.Dead = DeadOff
	c.HonorBypass = false
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Ways <= 0 || c.LineWords <= 0 {
		return fmt.Errorf("cache: sets, ways, linewords must be positive (got %d/%d/%d)",
			c.Sets, c.Ways, c.LineWords)
	}
	if c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: sets must be a power of two, got %d", c.Sets)
	}
	if c.LineWords&(c.LineWords-1) != 0 {
		return fmt.Errorf("cache: line words must be a power of two, got %d", c.LineWords)
	}
	if c.Policy == MIN {
		return fmt.Errorf("cache: MIN policy needs future knowledge; only trace replay runs it")
	}
	return nil
}

// Lines returns the total line count.
func (c Config) Lines() int { return c.Sets * c.Ways }

// DeadKillsResidency reports whether a Last-tagged reference revokes the
// target line's replacement protection: under any dead-marking mode the
// line is either invalidated or demoted to preferred victim, so no static
// analysis may keep treating it as safely resident afterwards.
func (c Config) DeadKillsResidency() bool { return c.Dead != DeadOff }

// DeadKillsMembership reports whether a Last-tagged reference definitely
// leaves the target line uncached. Only invalidating dead-marking with
// one-word lines discards unconditionally — a dirty multi-word line is
// demoted instead of dropped to protect live sibling words (see deadMark).
func (c Config) DeadKillsMembership() bool {
	return c.Dead == DeadInvalidate && c.LineWords == 1
}

// Stats is the word-exact traffic accounting of one run. "Memory traffic"
// in the paper's Figure 5 sense is MemTrafficWords.
type Stats struct {
	Refs       int64 // all data references issued by the CPU
	CachedRefs int64 // references that went through the cache
	BypassRefs int64 // references that used the bypass path

	Hits   int64 // cached-reference hits (plus bypass loads answered by cache)
	Misses int64 // cached-reference misses

	Fetches        int64 // lines fetched from memory into cache
	Writebacks     int64 // dirty lines written back on eviction
	StoreAllocs    int64 // store misses allocated without a fetch (line==1 word)
	BypassReads    int64 // words read directly from memory
	BypassWrites   int64 // words written directly to memory
	DeadMarks      int64 // dead-mark events honored
	DeadDiscards   int64 // dirty lines discarded by dead marking (writeback avoided)
	SingleUseFills int64 // evicted lines that were referenced exactly once
	Evictions      int64
}

// MemTrafficWords is total words moved between cache/CPU and main memory:
// the quantity whose reduction Figure 5 reports.
func (s Stats) MemTrafficWords(lineWords int) int64 {
	return (s.Fetches+s.Writebacks)*int64(lineWords) + s.BypassReads + s.BypassWrites
}

// HitRatio is hits over cached references.
func (s Stats) HitRatio() float64 {
	if s.CachedRefs == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.CachedRefs)
}

type line struct {
	valid bool
	dirty bool
	tag   int64 // line-aligned address / LineWords
	data  []int64
	last  int64 // LRU timestamp
	seq   int64 // FIFO insertion order
	refs  int64 // references since fill (single-use accounting)
	dead  bool  // demoted by dead marking

	// Detection-layer state (maintained only when Config.ECC != ECCOff).
	// parity holds one bit per word; good holds the word as last written
	// through the legitimate ports, modeling the SECDED codeword (the
	// fault port's FlipBit corrupts data without touching either).
	parity []uint8
	good   []int64
}

// Memory is main memory fronted by the modeled data cache. All CPU data
// references go through Load/Store; instruction fetches are not modeled
// (the paper's evaluation concerns the data cache).
type Memory struct {
	cfg      Config
	mem      []int64
	sets     [][]line
	stats    Stats
	fstats   FaultStats
	faultErr error // first detected-unrecoverable fault (sticky)
	tick     int64
	rng      uint64

	// split() runs on every reference; Validate guarantees LineWords and
	// Sets are powers of two and VM addresses are non-negative, so the
	// divide/modulo reduce to a shift and two masks.
	lwShift uint
	lwMask  int64
	setMask int64
	eccOn   bool
}

// NewMemory builds a memory of words size fronted by a cache with cfg.
func NewMemory(words int, cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Memory{cfg: cfg, mem: make([]int64, words), rng: cfg.Seed | 1}
	m.lwShift = uint(bits.TrailingZeros(uint(cfg.LineWords)))
	m.lwMask = int64(cfg.LineWords - 1)
	m.setMask = int64(cfg.Sets - 1)
	m.eccOn = cfg.ECC != ECCOff
	m.sets = make([][]line, cfg.Sets)
	for i := range m.sets {
		ways := make([]line, cfg.Ways)
		for w := range ways {
			ways[w].data = make([]int64, cfg.LineWords)
			if cfg.ECC != ECCOff {
				ways[w].parity = make([]uint8, cfg.LineWords)
				ways[w].good = make([]int64, cfg.LineWords)
			}
		}
		m.sets[i] = ways
	}
	return m, nil
}

// Words returns the memory size.
func (m *Memory) Words() int { return len(m.mem) }

// Stats returns a copy of the accumulated statistics.
func (m *Memory) Stats() Stats { return m.stats }

// Hits returns the running hit count alone, so the VM can tell an
// observed reference's hit from its miss without copying the whole Stats.
func (m *Memory) Hits() int64 { return m.stats.Hits }

// FaultStats returns a copy of the detection-layer counters.
func (m *Memory) FaultStats() FaultStats { return m.fstats }

// FaultErr returns the first detected-unrecoverable data fault, or nil.
// Callers executing against the cache (the VM) must consult it after every
// reference: a non-nil result means cached data was damaged in a way the
// detection layer could not repair, and the run must not continue silently.
func (m *Memory) FaultErr() error { return m.faultErr }

func (m *Memory) setFault(kind FaultKind, addr int64, dirty bool) {
	m.fstats.Detected++
	if m.faultErr == nil {
		m.faultErr = &FaultError{Kind: kind, Addr: addr, Dirty: dirty}
	}
}

func parityOf(v int64) uint8 { return uint8(bits.OnesCount64(uint64(v)) & 1) }

// protectWord (re)computes the detection code for word off of ln after a
// legitimate write. Every store into line data must go through here.
func (m *Memory) protectWord(ln *line, off int) {
	switch m.cfg.ECC {
	case ECCOff:
	case ECCParity:
		ln.parity[off] = parityOf(ln.data[off])
	case ECCSECDED:
		ln.parity[off] = parityOf(ln.data[off])
		ln.good[off] = ln.data[off]
	}
}

// checkWord verifies word off of ln against its code before the word is
// consumed (read hit or writeback). It returns true when the word is usable
// afterwards: intact, corrected (SECDED), or repaired by a clean-line
// refetch (ECCRetry). On detected-uncorrectable damage it records the
// sticky fault and returns false.
func (m *Memory) checkWord(ln *line, off int) bool {
	if m.cfg.ECC == ECCOff {
		return true
	}
	m.fstats.EccChecks++
	addr := ln.tag*int64(m.cfg.LineWords) + int64(off)
	switch m.cfg.ECC {
	case ECCSECDED:
		diff := uint64(ln.data[off] ^ ln.good[off])
		if diff == 0 {
			return true
		}
		if bits.OnesCount64(diff) == 1 {
			ln.data[off] = ln.good[off]
			m.fstats.Corrected++
			return true
		}
	case ECCParity:
		if parityOf(ln.data[off]) == ln.parity[off] {
			return true
		}
	}
	if m.cfg.ECCRetry && !ln.dirty {
		// A clean line is coherent with memory: repair by refetching.
		base := ln.tag * int64(m.cfg.LineWords)
		for i := 0; i < m.cfg.LineWords; i++ {
			ln.data[i] = m.mem[base+int64(i)]
			m.protectWord(ln, i)
		}
		m.fstats.Retried++
		return true
	}
	m.setFault(FaultECC, addr, ln.dirty)
	return false
}

// ---- Fault port (used by an attached Injector) ----

// InvalidateClean invalidates one resident clean line, chosen by pick
// modulo the clean-line population, modeling a spurious invalidation
// fault. Clean lines are coherent with memory by construction, so this
// costs a refetch but can never change program results. It reports whether
// a line was invalidated (false when nothing clean is resident).
func (m *Memory) InvalidateClean(pick uint64) bool {
	var clean []*line
	for s := range m.sets {
		for w := range m.sets[s] {
			ln := &m.sets[s][w]
			if ln.valid && !ln.dirty {
				clean = append(clean, ln)
			}
		}
	}
	if len(clean) == 0 {
		return false
	}
	ln := clean[pick%uint64(len(clean))]
	ln.valid = false
	ln.dirty = false
	ln.dead = false
	return true
}

// FlipBit flips bit (bit mod 64) of one word of one resident line — the
// line chosen by pick modulo the valid population, the word by word modulo
// the line size — without updating the line's detection code, modeling an
// SRAM soft error. It returns the damaged word's address, or ok=false when
// no line is resident.
func (m *Memory) FlipBit(pick uint64, word int, bit uint) (addr int64, ok bool) {
	var valid []*line
	for s := range m.sets {
		for w := range m.sets[s] {
			ln := &m.sets[s][w]
			if ln.valid {
				valid = append(valid, ln)
			}
		}
	}
	if len(valid) == 0 {
		return 0, false
	}
	ln := valid[pick%uint64(len(valid))]
	off := word % m.cfg.LineWords
	if off < 0 {
		off += m.cfg.LineWords
	}
	ln.data[off] ^= 1 << (bit % 64)
	return ln.tag*int64(m.cfg.LineWords) + int64(off), true
}

// Poke writes a word directly to backing memory without touching the cache
// or statistics (program loading).
func (m *Memory) Poke(addr int64, v int64) { m.mem[addr] = v }

// Peek reads a word, preferring a cached dirty copy, without statistics
// (debugger/test use).
func (m *Memory) Peek(addr int64) int64 {
	set, tag, off := m.split(addr)
	for w := range m.sets[set] {
		ln := &m.sets[set][w]
		if ln.valid && ln.tag == tag {
			return ln.data[off]
		}
	}
	return m.mem[addr]
}

func (m *Memory) split(addr int64) (set int, tag int64, off int) {
	lineAddr := addr >> m.lwShift
	return int(lineAddr & m.setMask), lineAddr, int(addr & m.lwMask)
}

func (m *Memory) lookup(set int, tag int64) *line {
	ways := m.sets[set]
	for w := range ways {
		ln := &ways[w]
		// Tag compared first — it almost always decides; the valid check
		// guards against a stale tag left on an invalidated line.
		if ln.tag == tag && ln.valid {
			return ln
		}
	}
	return nil
}

func (m *Memory) nextRand() uint64 {
	// xorshift64*
	x := m.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	m.rng = x
	return x * 0x2545F4914F6CDD1D
}

// usableWay reports whether (set, w) can hold data (not a stuck-at way).
func (m *Memory) usableWay(set, w int) bool {
	return m.cfg.Injector == nil || !m.cfg.Injector.WayStuck(set, w)
}

// victim picks the way to replace in set. Empty (invalid) lines are always
// preferred — the paper's "simple placement instead of line-replace"
// benefit of dead marking — then dead-demoted lines, then the policy.
// Stuck-at ways are never selected; when every way of the set is stuck,
// victim returns nil and the caller degrades to an uncached access.
func (m *Memory) victim(set int) *line {
	ways := m.sets[set]
	for w := range ways {
		if m.usableWay(set, w) && !ways[w].valid {
			return &ways[w]
		}
	}
	for w := range ways {
		if m.usableWay(set, w) && ways[w].dead {
			return &ways[w]
		}
	}
	best := -1
	switch m.cfg.Policy {
	case FIFO:
		for w := range ways {
			if m.usableWay(set, w) && (best < 0 || ways[w].seq < ways[best].seq) {
				best = w
			}
		}
	case Random:
		// Draw among usable ways only, preserving determinism: one PRNG
		// draw selects the k-th usable way, exactly the element the old
		// materialized-slice selection produced, without allocating.
		n := 0
		for w := range ways {
			if m.usableWay(set, w) {
				n++
			}
		}
		if n > 0 {
			k := int(m.nextRand() % uint64(n))
			for w := range ways {
				if m.usableWay(set, w) {
					if k == 0 {
						best = w
						break
					}
					k--
				}
			}
		}
	default: // LRU
		for w := range ways {
			if m.usableWay(set, w) && (best < 0 || ways[w].last < ways[best].last) {
				best = w
			}
		}
	}
	if best < 0 {
		return nil
	}
	return &ways[best]
}

// evict writes back a dirty victim and accounts for the eviction. An
// injected writeback drop loses the line's data; with the detection layer
// on, the loss surfaces as a machine-check style FaultWritebackLost.
func (m *Memory) evict(ln *line) {
	if !ln.valid {
		return
	}
	m.stats.Evictions++
	if ln.refs == 1 {
		m.stats.SingleUseFills++
	}
	if ln.dirty {
		base := ln.tag * int64(m.cfg.LineWords)
		if m.cfg.Injector != nil && m.cfg.Injector.DropWriteback(base) {
			m.fstats.WritebacksLost++
			if m.cfg.ECC != ECCOff {
				m.setFault(FaultWritebackLost, base, true)
			}
		} else {
			m.writebackLine(ln)
			m.stats.Writebacks++
		}
	}
	ln.valid = false
	ln.dead = false
}

func (m *Memory) writebackLine(ln *line) {
	base := ln.tag * int64(m.cfg.LineWords)
	for i := 0; i < m.cfg.LineWords; i++ {
		if m.eccOn {
			m.checkWord(ln, i)
		}
		m.mem[base+int64(i)] = ln.data[i]
	}
}

func (m *Memory) fillLine(ln *line, tag int64) {
	base := tag * int64(m.cfg.LineWords)
	for i := 0; i < m.cfg.LineWords; i++ {
		ln.data[i] = m.mem[base+int64(i)]
	}
	ln.valid = true
	ln.dirty = false
	ln.tag = tag
	ln.refs = 0
	ln.dead = false
	if m.cfg.ECC != ECCOff {
		for i := 0; i < m.cfg.LineWords; i++ {
			m.protectWord(ln, i)
		}
	}
	m.tick++
	ln.last = m.tick
	ln.seq = m.tick
}

// deadMark applies the last-reference bit to a resident line. A lost kill
// signal (injected) leaves the line untouched — by the paper's argument
// this can only cost cycles, never correctness, a property the resilience
// harness enforces.
func (m *Memory) deadMark(ln *line) {
	if m.cfg.Injector != nil && m.cfg.Injector.DropDeadMark(ln.tag*int64(m.cfg.LineWords)) {
		return
	}
	switch m.cfg.Dead {
	case DeadOff:
		return
	case DeadDemote:
		m.stats.DeadMarks++
		ln.dead = true
		ln.last = -1 // least recently used
		ln.seq = -1  // first-in for FIFO
	case DeadInvalidate:
		m.stats.DeadMarks++
		if ln.dirty && m.cfg.LineWords > 1 {
			// Sibling words may be live: demote instead of discarding.
			ln.dead = true
			ln.last = -1
			ln.seq = -1
			return
		}
		if ln.dirty {
			m.stats.DeadDiscards++ // writeback avoided: value is dead
		}
		if ln.refs == 1 {
			m.stats.SingleUseFills++
		}
		ln.valid = false
		ln.dirty = false
		ln.dead = false
	}
}

// Load performs a data load with the instruction's control bits and
// returns the loaded value.
func (m *Memory) Load(addr int64, bypass, lastRef bool) int64 {
	if m.cfg.Injector != nil {
		m.cfg.Injector.BeforeRef(m, addr, false)
	}
	m.stats.Refs++
	set, tag, off := m.split(addr)

	if bypass && m.cfg.HonorBypass {
		m.stats.BypassRefs++
		// UmAm_LOAD: check the cache first; a hit consumes the cached
		// datum and (on the final reference) kills the line.
		if ln := m.lookup(set, tag); ln != nil {
			m.tick++
			ln.last = m.tick
			ln.refs++
			if m.eccOn {
				m.checkWord(ln, off)
			}
			v := ln.data[off]
			if lastRef {
				m.deadMark(ln)
			}
			return v
		}
		// Miss: read the word straight from memory, no allocation.
		m.stats.BypassReads++
		return m.mem[addr]
	}

	// Am_LOAD: through the cache.
	m.stats.CachedRefs++
	if ln := m.lookup(set, tag); ln != nil {
		m.stats.Hits++
		m.tick++
		ln.last = m.tick
		ln.refs++
		ln.dead = false // referenced again: alive after all
		if m.eccOn {
			m.checkWord(ln, off)
		}
		v := ln.data[off]
		if lastRef {
			m.deadMark(ln)
		}
		return v
	}
	m.stats.Misses++
	ln := m.victim(set)
	if ln == nil {
		// Every way of the set is stuck: degrade to an uncached access.
		m.fstats.StuckWayRefs++
		m.stats.BypassReads++
		return m.mem[addr]
	}
	m.evict(ln)
	m.fillLine(ln, tag)
	m.stats.Fetches++
	ln.refs = 1
	v := ln.data[off]
	if lastRef {
		m.deadMark(ln)
	}
	return v
}

// Store performs a data store with the instruction's control bits.
func (m *Memory) Store(addr int64, val int64, bypass, lastRef bool) {
	if m.cfg.Injector != nil {
		m.cfg.Injector.BeforeRef(m, addr, true)
	}
	m.stats.Refs++
	set, tag, off := m.split(addr)

	if bypass && m.cfg.HonorBypass {
		m.stats.BypassRefs++
		// UmAm_STORE: straight to memory. A stale cached copy (possible
		// only in mixed classifications) is updated in place to stay
		// coherent rather than invalidated, preserving sibling words.
		m.stats.BypassWrites++
		m.mem[addr] = val
		if ln := m.lookup(set, tag); ln != nil {
			m.tick++
			ln.last = m.tick
			ln.refs++
			ln.data[off] = val
			if m.eccOn {
				m.protectWord(ln, off)
			}
			if lastRef {
				m.deadMark(ln)
			}
		}
		return
	}

	// AmSp_STORE: write-allocate, write-back.
	m.stats.CachedRefs++
	if ln := m.lookup(set, tag); ln != nil {
		m.stats.Hits++
		m.tick++
		ln.last = m.tick
		ln.refs++
		ln.data[off] = val
		if m.eccOn {
			m.protectWord(ln, off)
		}
		ln.dirty = true
		ln.dead = false
		if lastRef {
			m.deadMark(ln)
		}
		return
	}
	m.stats.Misses++
	ln := m.victim(set)
	if ln == nil {
		// Every way of the set is stuck: degrade to an uncached write.
		m.fstats.StuckWayRefs++
		m.stats.BypassWrites++
		m.mem[addr] = val
		return
	}
	m.evict(ln)
	if m.cfg.LineWords == 1 {
		// The whole line is overwritten: allocate without fetching.
		m.stats.StoreAllocs++
		ln.valid = true
		ln.tag = tag
		ln.refs = 0
		ln.dead = false
		m.tick++
		ln.last = m.tick
		ln.seq = m.tick
	} else {
		m.fillLine(ln, tag)
		m.stats.Fetches++
	}
	ln.refs = 1
	ln.data[off] = val
	if m.eccOn {
		m.protectWord(ln, off)
	}
	ln.dirty = true
	if lastRef {
		m.deadMark(ln)
	}
}

// FlushAll writes every dirty line back to memory (end-of-run barrier for
// inspecting memory contents; traffic is not counted).
func (m *Memory) FlushAll() {
	for s := range m.sets {
		for w := range m.sets[s] {
			ln := &m.sets[s][w]
			if ln.valid && ln.dirty {
				m.writebackLine(ln)
				ln.dirty = false
			}
		}
	}
}
