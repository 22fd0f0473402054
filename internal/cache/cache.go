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

	"repro/internal/memimg"
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
	// line holding addr is lost. Losing a kill is a pure hint loss. It is
	// consulted only for Last-tagged references on hardware that acts on
	// the Last bit (Dead != DeadOff).
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

// Key canonically encodes the fields of the configuration that determine
// simulation results. The Injector is excluded: injected configurations
// bypass memoization entirely. The artifact store names its run files
// with it, so the format must not change.
func (c Config) Key() string {
	return fmt.Sprintf("s%d.w%d.l%d.%s.%s.b%v.seed%d.ecc%s.retry%v",
		c.Sets, c.Ways, c.LineWords, c.Policy, c.Dead,
		c.HonorBypass, c.Seed, c.ECC, c.ECCRetry)
}

// Spec names a cache configuration the way users spell it: the public
// API, the serving daemon's JSON requests and the simulator's flags all
// resolve through Spec.Apply. Zero fields keep the base configuration's
// values.
type Spec struct {
	Sets      int `json:"sets,omitempty"`       // number of sets (power of two); default 32
	Ways      int `json:"ways,omitempty"`       // associativity; default 2
	LineWords int `json:"line_words,omitempty"` // words per line; default 1 (the paper's assumption)
	// Policy is a Policy name: "lru" (default), "fifo", "random", or
	// "min" (trace replay only; Config.Validate rejects it for execution).
	Policy string `json:"policy,omitempty"`
	// DeadMarking is a DeadMode name: "invalidate" (default in unified
	// mode), "demote", "off" (default in conventional mode).
	DeadMarking string `json:"dead_marking,omitempty"`
	// HonorBypass defaults to true in unified mode, false otherwise.
	HonorBypass *bool  `json:"honor_bypass,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
}

// Apply overlays the spec's non-zero fields on base, which is the
// management mode's configuration (DefaultConfig or ConventionalConfig).
// It fails only on an unknown policy or dead-marking name.
func (s Spec) Apply(base Config) (Config, error) {
	c := base
	if s.Sets != 0 {
		c.Sets = s.Sets
	}
	if s.Ways != 0 {
		c.Ways = s.Ways
	}
	if s.LineWords != 0 {
		c.LineWords = s.LineWords
	}
	if s.Policy != "" {
		p, err := ParsePolicy(s.Policy)
		if err != nil {
			return base, err
		}
		c.Policy = p
	}
	if s.DeadMarking != "" {
		d, err := ParseDeadMode(s.DeadMarking)
		if err != nil {
			return base, err
		}
		c.Dead = d
	}
	if s.HonorBypass != nil {
		c.HonorBypass = *s.HonorBypass
	}
	if s.Seed != 0 {
		c.Seed = s.Seed
	}
	return c, nil
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

// Memory is main memory fronted by the modeled data cache. All CPU data
// references go through Load/Store; instruction fetches are not modeled
// (the paper's evaluation concerns the data cache). The protocol is
// Core's; Memory adds the line data, the ECC layer and the injector hooks.
type Memory struct {
	c   Core
	mem *memimg.Image[int64] // backing memory; grows as the run writes it
	// data holds line li's words at [li<<lwShift, (li+1)<<lwShift).
	data []int64
	// Detection-layer state, allocated only when ECC is on, indexed like
	// data. parity holds one bit per word; good holds the word as last
	// written through the legitimate ports, modeling the SECDED codeword
	// (the fault port's FlipBit corrupts data without touching either).
	parity []uint8
	good   []int64

	inj      Injector
	ecc      ECCMode
	eccRetry bool
	honor    bool // HonorBypass
	kill     bool // the hardware acts on the Last bit (Dead != DeadOff)
	fstats   FaultStats
	faultErr error // first detected-unrecoverable fault (sticky)

	// Validate guarantees LineWords and Sets are powers of two and VM
	// addresses are non-negative, so the divide/modulo of address
	// splitting reduce to a shift and two masks. lwShift < 64; Load and
	// Store mask it with 63, which spares each shift the compiler's
	// fix-up for oversized shift counts.
	lwShift uint
	lwMask  int64
	setMask int64
}

// NewMemory builds a memory of words size fronted by a cache with cfg.
// The backing memory costs only the words a run writes (memimg.Image).
// Stuck ways are read from cfg.Injector once, here.
func NewMemory(words int, cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Memory{
		c: NewCore(cfg), mem: memimg.New[int64](words),
		data: make([]int64, cfg.Lines()*cfg.LineWords),
		inj:  cfg.Injector, ecc: cfg.ECC, eccRetry: cfg.ECCRetry, honor: cfg.HonorBypass,
		kill:    cfg.Dead != DeadOff,
		lwShift: uint(bits.TrailingZeros(uint(cfg.LineWords))),
		lwMask:  int64(cfg.LineWords - 1),
		setMask: int64(cfg.Sets - 1),
	}
	if cfg.ECC != ECCOff {
		m.parity = make([]uint8, len(m.data))
		m.good = make([]int64, len(m.data))
	}
	if cfg.Injector != nil {
		m.c.stickWays(cfg.Injector.WayStuck)
	}
	return m, nil
}

// Stats returns a copy of the accumulated statistics.
func (m *Memory) Stats() Stats { return m.c.Stats() }

// Hits returns the running hit count alone, so the VM can tell an
// observed reference's hit from its miss without copying the whole Stats.
func (m *Memory) Hits() int64 { return m.c.st.Hits }

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

// protectWord (re)computes the detection code of data word w after a
// legitimate write. Every store into line data must go through here.
func (m *Memory) protectWord(w int) {
	switch m.ecc {
	case ECCParity:
		m.parity[w] = parityOf(m.data[w])
	case ECCSECDED:
		m.parity[w] = parityOf(m.data[w])
		m.good[w] = m.data[w]
	}
}

// checkWord verifies data word w of line li against its code before the
// word is consumed (read hit or writeback); ECC must be on. The word is
// usable afterwards when intact, corrected (SECDED) or repaired by a
// clean-line refetch (ECCRetry); detected-uncorrectable damage records
// the sticky fault.
func (m *Memory) checkWord(li, w int) {
	m.fstats.EccChecks++
	switch m.ecc {
	case ECCSECDED:
		diff := uint64(m.data[w] ^ m.good[w])
		if diff == 0 {
			return
		}
		if bits.OnesCount64(diff) == 1 {
			m.data[w] = m.good[w]
			m.fstats.Corrected++
			return
		}
	case ECCParity:
		if parityOf(m.data[w]) == m.parity[w] {
			return
		}
	}
	if m.eccRetry && !m.c.dirty[li] {
		// A clean line is coherent with memory: repair by refetching.
		m.fetch(li)
		m.fstats.Retried++
		return
	}
	m.setFault(FaultECC, m.c.tags[li]<<m.lwShift+int64(w)&m.lwMask, m.c.dirty[li])
}

// ---- Fault port (used by an attached Injector) ----

// InvalidateClean invalidates one resident clean line, chosen by pick
// modulo the clean-line population, modeling a spurious invalidation
// fault. Clean lines are coherent with memory by construction, so this
// costs a refetch but can never change program results. It reports whether
// a line was invalidated (false when nothing clean is resident).
func (m *Memory) InvalidateClean(pick uint64) bool {
	li := m.pickLine(pick, true)
	if li < 0 {
		return false
	}
	m.c.invalidate(li, li/m.c.ways)
	return true
}

// FlipBit flips bit (bit mod 64) of one word of one resident line — the
// line chosen by pick modulo the valid population, the word by word modulo
// the line size — without updating the line's detection code, modeling an
// SRAM soft error. It returns the damaged word's address, or ok=false when
// no line is resident.
func (m *Memory) FlipBit(pick uint64, word int, bit uint) (addr int64, ok bool) {
	li := m.pickLine(pick, false)
	if li < 0 {
		return 0, false
	}
	off := int64(word) & m.lwMask // word mod the power-of-two line size
	m.data[li<<m.lwShift+int(off)] ^= 1 << (bit % 64)
	return m.c.tags[li]<<m.lwShift + off, true
}

// pickLine returns the resident line (clean ones only when clean is set)
// chosen by pick modulo their number, in line order, or -1 when there is
// none.
func (m *Memory) pickLine(pick uint64, clean bool) int {
	c := &m.c
	n := 0
	for li, v := range c.valid {
		if v && !(clean && c.dirty[li]) {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	k := pick % uint64(n)
	for li, v := range c.valid {
		if v && !(clean && c.dirty[li]) {
			if k == 0 {
				return li
			}
			k--
		}
	}
	return -1
}

// Poke writes a word directly to backing memory without touching the cache
// or statistics (program loading).
func (m *Memory) Poke(addr int64, v int64) { m.mem.Store(addr, v) }

// Peek reads a word, preferring a cached dirty copy, without statistics
// (debugger/test use).
func (m *Memory) Peek(addr int64) int64 {
	tag := addr >> m.lwShift
	if li := m.c.Lookup(int(tag&m.setMask), tag); li >= 0 {
		return m.data[li<<m.lwShift+int(addr&m.lwMask)]
	}
	return m.mem.Load(addr)
}

// Load performs a data load with the instruction's control bits and
// returns the loaded value. With the bypass bit honored (UmAm_LOAD) a
// cached copy answers it when there is one; otherwise the word is read
// from memory without allocating.
func (m *Memory) Load(addr int64, bypass, lastRef bool) int64 {
	if m.inj != nil {
		m.inj.BeforeRef(m, addr, false)
	}
	c := &m.c
	tag := addr >> (m.lwShift & 63)
	set := int(tag & m.setMask)
	li := c.Lookup(set, tag)
	hit := li >= 0
	switch {
	case bypass && m.honor:
		c.BypassRef(li, false)
	case hit:
		c.Hit(li, set, false)
	default:
		li = m.allocate(set, tag, false)
	}
	if li < 0 {
		return m.mem.Load(addr)
	}
	w := li<<(m.lwShift&63) + int(addr&m.lwMask)
	if hit && m.ecc != ECCOff {
		m.checkWord(li, w)
	}
	v := m.data[w]
	// A lost kill signal (injected) leaves the line untouched — by the
	// paper's argument this can only cost cycles, never correctness, a
	// property the resilience harness enforces. Hardware that ignores the
	// Last bit sends no kill signal, so none can be lost.
	if lastRef && m.kill && (m.inj == nil || !m.inj.DropDeadMark(tag<<(m.lwShift&63))) {
		c.DeadMark(li, set)
	}
	return v
}

// Store performs a data store with the instruction's control bits. With
// the bypass bit honored (UmAm_STORE) it writes memory and updates a
// cached copy in place (possible only in mixed classifications),
// preserving its sibling words; otherwise it goes through the cache,
// write-allocate and write-back.
func (m *Memory) Store(addr int64, val int64, bypass, lastRef bool) {
	if m.inj != nil {
		m.inj.BeforeRef(m, addr, true)
	}
	c := &m.c
	tag := addr >> (m.lwShift & 63)
	set := int(tag & m.setMask)
	li := c.Lookup(set, tag)
	switch {
	case bypass && m.honor:
		c.BypassRef(li, true)
		m.mem.Store(addr, val)
	case li >= 0:
		c.Hit(li, set, true)
	default:
		if li = m.allocate(set, tag, true); li < 0 {
			m.mem.Store(addr, val)
		}
	}
	if li < 0 {
		return
	}
	w := li<<(m.lwShift&63) + int(addr&m.lwMask)
	m.data[w] = val
	if m.ecc != ECCOff {
		m.protectWord(w)
	}
	if lastRef && m.kill && (m.inj == nil || !m.inj.DropDeadMark(tag<<(m.lwShift&63))) {
		c.DeadMark(li, set)
	}
}

// allocate makes room in set for tag on a cached miss and returns the
// line now holding it, fetched unless a store overwrites all of it, or
// -1 when every way of the set is stuck and the reference degrades to
// an uncached access.
func (m *Memory) allocate(set int, tag int64, store bool) int {
	c := &m.c
	li := c.Victim(set)
	if li < 0 {
		m.fstats.StuckWayRefs++
		c.uncached(store)
		return -1
	}
	lost := c.valid[li] && c.dirty[li] && m.writebackVictim(li)
	c.Replace(li, set, tag, store, lost)
	if !store || !c.lw1 {
		m.fetch(li)
	}
	return li
}

// writebackVictim writes back the dirty victim line li and reports
// whether the writeback was lost: an injected drop loses the data and,
// with the detection layer on, surfaces as a machine-check style
// FaultWritebackLost.
func (m *Memory) writebackVictim(li int) bool {
	base := m.c.tags[li] << m.lwShift
	if m.inj == nil || !m.inj.DropWriteback(base) {
		m.writeback(li)
		return false
	}
	m.fstats.WritebacksLost++
	if m.ecc != ECCOff {
		m.setFault(FaultWritebackLost, base, true)
	}
	return true
}

// writeback copies line li's words to memory, each checked first when
// ECC is on.
func (m *Memory) writeback(li int) {
	base, w := m.c.tags[li]<<m.lwShift, li<<m.lwShift
	for i := 0; i <= int(m.lwMask); i++ {
		if m.ecc != ECCOff {
			m.checkWord(li, w+i)
		}
		m.mem.Store(base+int64(i), m.data[w+i])
	}
}

// fetch reads line li's words from memory.
func (m *Memory) fetch(li int) {
	base, w := m.c.tags[li]<<m.lwShift, li<<m.lwShift
	for i := 0; i <= int(m.lwMask); i++ {
		m.data[w+i] = m.mem.Load(base + int64(i))
		if m.ecc != ECCOff {
			m.protectWord(w + i)
		}
	}
}

// FlushAll writes every dirty line back to memory (end-of-run barrier for
// inspecting memory contents; traffic is not counted).
func (m *Memory) FlushAll() {
	for li, v := range m.c.valid {
		if v && m.c.dirty[li] {
			m.writeback(li)
			m.c.dirty[li] = false
		}
	}
}
