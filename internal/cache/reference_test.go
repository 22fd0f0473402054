package cache

import (
	"math/bits"

	"repro/internal/memimg"
)

// refInjector is Injector with BeforeRef taking the reference model.
type refInjector interface {
	BeforeRef(m *refMemory, addr int64, store bool)
	DropDeadMark(addr int64) bool
	DropWriteback(addr int64) bool
	WayStuck(set, way int) bool
}

type refLine struct {
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

// refMemory is the reference model of Memory: the per-line protocol
// Memory implemented before the protocol moved into Core, kept verbatim
// (the Injector field of Config is replaced by a refInjector, since the
// production Injector's BeforeRef takes a *Memory). Memory must match it
// in every loaded value, counter, fault and memory word.
type refMemory struct {
	cfg      Config
	inj      refInjector
	mem      *memimg.Image[int64] // backing memory; grows as the run writes it
	sets     [][]refLine
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

// newRefMemory builds a reference model of NewMemory(words, cfg) with
// inj (nil for none) attached.
func newRefMemory(words int, cfg Config, inj refInjector) (*refMemory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &refMemory{cfg: cfg, inj: inj, mem: memimg.New[int64](words), rng: cfg.Seed | 1}
	m.lwShift = uint(bits.TrailingZeros(uint(cfg.LineWords)))
	m.lwMask = int64(cfg.LineWords - 1)
	m.setMask = int64(cfg.Sets - 1)
	m.eccOn = cfg.ECC != ECCOff
	m.sets = make([][]refLine, cfg.Sets)
	for i := range m.sets {
		ways := make([]refLine, cfg.Ways)
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

// Stats returns a copy of the accumulated statistics.
func (m *refMemory) Stats() Stats { return m.stats }

// FaultStats returns a copy of the detection-layer counters.
func (m *refMemory) FaultStats() FaultStats { return m.fstats }

// FaultErr returns the first detected-unrecoverable data fault, or nil.
// Callers executing against the cache (the VM) must consult it after every
// reference: a non-nil result means cached data was damaged in a way the
// detection layer could not repair, and the run must not continue silently.
func (m *refMemory) FaultErr() error { return m.faultErr }

func (m *refMemory) setFault(kind FaultKind, addr int64, dirty bool) {
	m.fstats.Detected++
	if m.faultErr == nil {
		m.faultErr = &FaultError{Kind: kind, Addr: addr, Dirty: dirty}
	}
}

// protectWord (re)computes the detection code for word off of ln after a
// legitimate write. Every store into line data must go through here.
func (m *refMemory) protectWord(ln *refLine, off int) {
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
func (m *refMemory) checkWord(ln *refLine, off int) bool {
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
			ln.data[i] = m.mem.Load(base + int64(i))
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
func (m *refMemory) InvalidateClean(pick uint64) bool {
	var clean []*refLine
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
func (m *refMemory) FlipBit(pick uint64, word int, bit uint) (addr int64, ok bool) {
	var valid []*refLine
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
func (m *refMemory) Poke(addr int64, v int64) { m.mem.Store(addr, v) }

// Peek reads a word, preferring a cached dirty copy, without statistics
// (debugger/test use).
func (m *refMemory) Peek(addr int64) int64 {
	set, tag, off := m.split(addr)
	for w := range m.sets[set] {
		ln := &m.sets[set][w]
		if ln.valid && ln.tag == tag {
			return ln.data[off]
		}
	}
	return m.mem.Load(addr)
}

func (m *refMemory) split(addr int64) (set int, tag int64, off int) {
	lineAddr := addr >> m.lwShift
	return int(lineAddr & m.setMask), lineAddr, int(addr & m.lwMask)
}

func (m *refMemory) lookup(set int, tag int64) *refLine {
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

func (m *refMemory) nextRand() uint64 {
	// xorshift64*
	x := m.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	m.rng = x
	return x * 0x2545F4914F6CDD1D
}

// usableWay reports whether (set, w) can hold data (not a stuck-at way).
func (m *refMemory) usableWay(set, w int) bool {
	return m.inj == nil || !m.inj.WayStuck(set, w)
}

// victim picks the way to replace in set. Empty (invalid) lines are always
// preferred — the paper's "simple placement instead of line-replace"
// benefit of dead marking — then dead-demoted lines, then the policy.
// Stuck-at ways are never selected; when every way of the set is stuck,
// victim returns nil and the caller degrades to an uncached access.
func (m *refMemory) victim(set int) *refLine {
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
func (m *refMemory) evict(ln *refLine) {
	if !ln.valid {
		return
	}
	m.stats.Evictions++
	if ln.refs == 1 {
		m.stats.SingleUseFills++
	}
	if ln.dirty {
		base := ln.tag * int64(m.cfg.LineWords)
		if m.inj != nil && m.inj.DropWriteback(base) {
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

func (m *refMemory) writebackLine(ln *refLine) {
	base := ln.tag * int64(m.cfg.LineWords)
	for i := 0; i < m.cfg.LineWords; i++ {
		if m.eccOn {
			m.checkWord(ln, i)
		}
		m.mem.Store(base+int64(i), ln.data[i])
	}
}

func (m *refMemory) fillLine(ln *refLine, tag int64) {
	base := tag * int64(m.cfg.LineWords)
	for i := 0; i < m.cfg.LineWords; i++ {
		ln.data[i] = m.mem.Load(base + int64(i))
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
// harness enforces. Hardware that ignores the bit sends no kill signal,
// so none can be lost.
func (m *refMemory) deadMark(ln *refLine) {
	if m.cfg.Dead == DeadOff {
		return
	}
	if m.inj != nil && m.inj.DropDeadMark(ln.tag*int64(m.cfg.LineWords)) {
		return
	}
	switch m.cfg.Dead {
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
func (m *refMemory) Load(addr int64, bypass, lastRef bool) int64 {
	if m.inj != nil {
		m.inj.BeforeRef(m, addr, false)
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
		return m.mem.Load(addr)
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
		return m.mem.Load(addr)
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
func (m *refMemory) Store(addr int64, val int64, bypass, lastRef bool) {
	if m.inj != nil {
		m.inj.BeforeRef(m, addr, true)
	}
	m.stats.Refs++
	set, tag, off := m.split(addr)

	if bypass && m.cfg.HonorBypass {
		m.stats.BypassRefs++
		// UmAm_STORE: straight to memory. A stale cached copy (possible
		// only in mixed classifications) is updated in place to stay
		// coherent rather than invalidated, preserving sibling words.
		m.stats.BypassWrites++
		m.mem.Store(addr, val)
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
		m.mem.Store(addr, val)
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
func (m *refMemory) FlushAll() {
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
