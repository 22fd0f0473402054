package replay

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/trace"
)

// The engine is a tags-only, flat struct-of-arrays model of cache.Memory's
// replacement and dead-marking protocol, extended with Belady's MIN:
// line state lives in parallel slices indexed set*ways+way, victim
// pre-scans (first invalid way, first dead way) use per-set bitsets, and
// tag lookup uses either a direct way scan (small associativity) or an
// open-addressed hash index (large associativity, e.g. E2's 256-way
// fully-associative sweeps). Everything is allocated at construction;
// the per-reference step allocates nothing — a property enforced by
// TestReplayZeroAllocs.
//
// Dead occupancy counts a sampled resident line as dead when it will
// never be referenced again. Any reference to a resident line touches
// it, so a resident line is dead exactly when its most recent touch was
// the final reference to its line address in the whole trace. The engine
// therefore needs only a line-address → final-reference-index map
// (memory flat in trace length), not a per-record next-use array —
// except under MIN, whose Belady victim choice genuinely requires
// per-record future knowledge (Encoded.nextUses).

// sampleEvery is Measure's occupancy sampling stride, in references.
const sampleEvery = 64

// directLookupMaxWays is the associativity above which tag lookup
// switches from a linear way scan to the hash index.
const directLookupMaxWays = 8

type engine struct {
	cfg     cache.Config
	ways    int
	lw      int64
	setMask int64
	lo, hi  int // set shard [lo, hi)

	// Hot-loop copies of the cfg fields step consults per reference, so
	// the loop reads scalars instead of chasing the embedded struct.
	honor    bool
	deadMode cache.DeadMode
	policy   cache.Policy
	lw1      bool // LineWords == 1

	// Per-line state, indexed set*ways+way.
	valid []bool
	dirty []bool
	dead  []bool
	tags  []int64
	last  []int64 // LRU timestamp
	seq   []int64 // FIFO insertion order
	refs  []int64
	nuse  []int32 // stored next-use index (MIN only)

	// Per-set way bitsets (wps words each): invalid has a bit per
	// not-valid way, deadbs a bit per demoted way. They turn the victim
	// pre-scans into find-first-set.
	wps     int
	invalid []uint64
	deadbs  []uint64

	idx *tagIndex // tag → line index; nil when ways <= directLookupMaxWays

	tick int64
	rng  uint64
	st   cache.Stats

	// MIN future knowledge (nil otherwise).
	nextUse []int32

	// Dead-occupancy measurement (Measure only).
	measure  bool
	finalBit []uint64 // bit per record: final touch of its line (non-MIN)
	deadRes  []bool   // line's last touch was its final reference
	validCnt int
	deadNow  int
	linesF   float64
	occSum   float64
	resSum   float64
	samples  int
}

func newEngine(cfg cache.Config, lo, hi int) *engine {
	lines := cfg.Sets * cfg.Ways
	wps := (cfg.Ways + 63) / 64
	eng := &engine{
		cfg:      cfg,
		ways:     cfg.Ways,
		lw:       int64(cfg.LineWords),
		setMask:  int64(cfg.Sets - 1),
		lo:       lo,
		hi:       hi,
		honor:    cfg.HonorBypass,
		deadMode: cfg.Dead,
		policy:   cfg.Policy,
		lw1:      cfg.LineWords == 1,
		valid:    make([]bool, lines),
		dirty:    make([]bool, lines),
		dead:     make([]bool, lines),
		tags:     make([]int64, lines),
		last:     make([]int64, lines),
		seq:      make([]int64, lines),
		refs:     make([]int64, lines),
		wps:      wps,
		invalid:  make([]uint64, cfg.Sets*wps),
		deadbs:   make([]uint64, cfg.Sets*wps),
		rng:      cfg.Seed | 1,
		linesF:   float64(lines),
	}
	for s := 0; s < cfg.Sets; s++ {
		for k := 0; k < wps; k++ {
			n := cfg.Ways - k*64
			if n >= 64 {
				eng.invalid[s*wps+k] = ^uint64(0)
			} else {
				eng.invalid[s*wps+k] = 1<<uint(n) - 1
			}
		}
	}
	if cfg.Ways > directLookupMaxWays {
		eng.idx = newTagIndex((hi - lo) * cfg.Ways)
	}
	return eng
}

// run replays the full stream, stepping only references that map into
// the engine's set shard. Decoding is inlined over the chunk bytes
// rather than going through a Cursor: records never straddle chunks, so
// the end-of-chunk check runs once per chunk instead of once per record,
// and the per-record cost is a handful of arithmetic ops.
func (eng *engine) run(enc *Encoded) {
	i := 0
	addr := int64(0)
	for _, buf := range enc.chunks {
		pos := 0
		for pos < len(buf) {
			b0 := buf[pos]
			pos++
			z := uint64(b0 >> 4)
			if b0&8 != 0 {
				shift := uint(4)
				for {
					b := buf[pos]
					pos++
					z |= uint64(b&0x7F) << shift
					if b&0x80 == 0 {
						break
					}
					shift += 7
				}
			}
			addr += int64(z>>1) ^ -int64(z&1)
			var r trace.Rec
			r.Addr = addr
			if b0&1 != 0 {
				r.Kind = trace.Store
			}
			r.Bypass = b0&2 != 0
			r.Last = b0&4 != 0
			eng.step(i, r)
			i++
		}
	}
}

// runBatch replays the full stream through several engines in one
// decoding pass: each record is decoded once and stepped into every
// engine. The engines share nothing but the read-only encoded trace (and
// any shared future-knowledge arrays), so per-engine results are
// identical to running each alone — batching saves only the repeated
// decode work, which is what E2/E3's many-configurations-one-trace
// experiments spend a large share of their time on.
func runBatch(enc *Encoded, engs []*engine) {
	if len(engs) == 1 {
		engs[0].run(enc)
		return
	}
	i := 0
	addr := int64(0)
	for _, buf := range enc.chunks {
		pos := 0
		for pos < len(buf) {
			b0 := buf[pos]
			pos++
			z := uint64(b0 >> 4)
			if b0&8 != 0 {
				shift := uint(4)
				for {
					b := buf[pos]
					pos++
					z |= uint64(b&0x7F) << shift
					if b&0x80 == 0 {
						break
					}
					shift += 7
				}
			}
			addr += int64(z>>1) ^ -int64(z&1)
			var r trace.Rec
			r.Addr = addr
			if b0&1 != 0 {
				r.Kind = trace.Store
			}
			r.Bypass = b0&2 != 0
			r.Last = b0&4 != 0
			for _, eng := range engs {
				eng.step(i, r)
			}
			i++
		}
	}
}

func (eng *engine) step(i int, r trace.Rec) {
	tag := r.Addr
	if eng.lw != 1 {
		tag = r.Addr / eng.lw
	}
	set := int(tag & eng.setMask)
	if set < eng.lo || set >= eng.hi {
		return
	}
	st := &eng.st
	st.Refs++

	if r.Bypass && eng.honor {
		st.BypassRefs++
		if li := eng.lookup(set, tag); li >= 0 {
			eng.tick++
			eng.last[li] = eng.tick
			eng.refs[li]++
			eng.noteTouch(li, i)
			if r.Kind == trace.Store {
				// UmAm_STORE updates memory; cached copy refreshed.
				st.BypassWrites++
			}
			if r.Last {
				eng.deadMark(li, set)
			}
		} else if r.Kind == trace.Load {
			st.BypassReads++
		} else {
			st.BypassWrites++
		}
		eng.maybeSample()
		return
	}

	st.CachedRefs++
	if li := eng.lookup(set, tag); li >= 0 {
		st.Hits++
		eng.tick++
		eng.last[li] = eng.tick
		eng.refs[li]++
		eng.noteTouch(li, i)
		if r.Kind == trace.Store {
			eng.dirty[li] = true
		}
		eng.setDead(li, set, false)
		if r.Last {
			eng.deadMark(li, set)
		}
	} else {
		st.Misses++
		li := eng.victim(set)
		eng.evictLine(li, set)
		eng.valid[li] = true
		eng.tags[li] = tag
		eng.clearInvalidBit(li, set)
		if eng.idx != nil {
			eng.idx.put(tag, int32(li))
		}
		eng.refs[li] = 1
		if eng.measure {
			eng.validCnt++
		}
		eng.noteTouch(li, i)
		eng.tick++
		eng.last[li] = eng.tick
		eng.seq[li] = eng.tick
		if r.Kind == trace.Store {
			if eng.lw1 {
				st.StoreAllocs++
			} else {
				st.Fetches++
			}
			eng.dirty[li] = true
		} else {
			st.Fetches++
			eng.dirty[li] = false
		}
		if r.Last {
			eng.deadMark(li, set)
		}
	}
	eng.maybeSample()
}

func (eng *engine) lookup(set int, tag int64) int {
	if eng.idx != nil {
		return eng.idx.get(tag)
	}
	base := set * eng.ways
	for li := base; li < base+eng.ways; li++ {
		// Tag compared first — it almost always decides, so the common
		// case is one load per way; the valid check guards against a
		// stale tag left on an invalidated line.
		if eng.tags[li] == tag && eng.valid[li] {
			return li
		}
	}
	return -1
}

// noteTouch refreshes the per-line future knowledge on every touch
// (bypass hit, cached hit, fill).
func (eng *engine) noteTouch(li, i int) {
	if eng.nextUse != nil {
		eng.nuse[li] = eng.nextUse[i]
	}
	if eng.measure {
		var fin bool
		if eng.nextUse != nil {
			fin = eng.nextUse[i] == never32
		} else {
			fin = eng.finalBit[uint(i)>>6]>>(uint(i)&63)&1 != 0
		}
		if fin != eng.deadRes[li] {
			eng.deadRes[li] = fin
			if fin {
				eng.deadNow++
			} else {
				eng.deadNow--
			}
		}
	}
}

func (eng *engine) maybeSample() {
	if !eng.measure {
		return
	}
	if eng.st.Refs%sampleEvery == 0 {
		// One division added per sample, resident count added per sample;
		// the fixed accumulation order keeps the floats reproducible.
		// (The validCnt guard is vacuous: deadNow is zero when nothing is
		// resident.)
		if eng.validCnt > 0 {
			eng.occSum += float64(eng.deadNow) / eng.linesF
		}
		eng.resSum += float64(eng.validCnt)
		eng.samples++
	}
}

func (eng *engine) victim(set int) int {
	base := set * eng.ways
	bw := set * eng.wps
	for k := 0; k < eng.wps; k++ {
		if v := eng.invalid[bw+k]; v != 0 {
			return base + k<<6 + bits.TrailingZeros64(v)
		}
	}
	for k := 0; k < eng.wps; k++ {
		if v := eng.deadbs[bw+k]; v != 0 {
			return base + k<<6 + bits.TrailingZeros64(v)
		}
	}
	switch eng.policy {
	case cache.FIFO:
		best := base
		for li := base + 1; li < base+eng.ways; li++ {
			if eng.seq[li] < eng.seq[best] {
				best = li
			}
		}
		return best
	case cache.Random:
		return base + int(eng.nextRand()%uint64(eng.ways))
	case cache.MIN:
		best := base
		for li := base + 1; li < base+eng.ways; li++ {
			if eng.nuse[li] > eng.nuse[best] {
				best = li
			}
		}
		return best
	default: // LRU
		best := base
		for li := base + 1; li < base+eng.ways; li++ {
			if eng.last[li] < eng.last[best] {
				best = li
			}
		}
		return best
	}
}

func (eng *engine) evictLine(li, set int) {
	if !eng.valid[li] {
		return
	}
	eng.st.Evictions++
	if eng.refs[li] == 1 {
		eng.st.SingleUseFills++
	}
	if eng.dirty[li] {
		eng.st.Writebacks++
	}
	eng.invalidate(li, set)
}

func (eng *engine) invalidate(li, set int) {
	eng.valid[li] = false
	eng.dirty[li] = false
	eng.setDead(li, set, false)
	eng.setInvalidBit(li, set)
	if eng.idx != nil {
		eng.idx.del(eng.tags[li])
	}
	if eng.measure {
		eng.validCnt--
		if eng.deadRes[li] {
			eng.deadRes[li] = false
			eng.deadNow--
		}
	}
}

func (eng *engine) deadMark(li, set int) {
	switch eng.deadMode {
	case cache.DeadOff:
		return
	case cache.DeadDemote:
		eng.st.DeadMarks++
		eng.setDead(li, set, true)
		eng.last[li] = -1
		eng.seq[li] = -1
	case cache.DeadInvalidate:
		eng.st.DeadMarks++
		if eng.dirty[li] && !eng.lw1 {
			// Sibling words may still be live: demote instead of dropping.
			eng.setDead(li, set, true)
			eng.last[li] = -1
			eng.seq[li] = -1
			return
		}
		if eng.dirty[li] {
			eng.st.DeadDiscards++
		}
		if eng.refs[li] == 1 {
			eng.st.SingleUseFills++
		}
		eng.invalidate(li, set)
	}
}

func (eng *engine) setDead(li, set int, v bool) {
	if eng.dead[li] == v {
		return
	}
	eng.dead[li] = v
	w := li - set*eng.ways
	word := set*eng.wps + w>>6
	bit := uint64(1) << uint(w&63)
	if v {
		eng.deadbs[word] |= bit
	} else {
		eng.deadbs[word] &^= bit
	}
}

func (eng *engine) setInvalidBit(li, set int) {
	w := li - set*eng.ways
	eng.invalid[set*eng.wps+w>>6] |= uint64(1) << uint(w&63)
}

func (eng *engine) clearInvalidBit(li, set int) {
	w := li - set*eng.ways
	eng.invalid[set*eng.wps+w>>6] &^= uint64(1) << uint(w&63)
}

// nextRand is cache.Memory's xorshift64* stream, bit for bit.
func (eng *engine) nextRand() uint64 {
	x := eng.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	eng.rng = x
	return x * 0x2545F4914F6CDD1D
}

// tagIndex is a fixed-capacity open-addressed hash table from line tag
// to line index, used when associativity makes the linear way scan the
// bottleneck (E2 replays 256-way fully-associative caches). Capacity is
// 4× the shard's line count, so load factor never exceeds 1/4 and the
// table never grows — which is what keeps lookups allocation-free.
// Deletion uses backward-shift compaction (no tombstones).
type tagIndex struct {
	keys  []int64
	vals  []int32
	used  []bool
	mask  uint64
	shift uint
}

func newTagIndex(lines int) *tagIndex {
	size := 4
	for size < 4*lines {
		size <<= 1
	}
	return &tagIndex{
		keys:  make([]int64, size),
		vals:  make([]int32, size),
		used:  make([]bool, size),
		mask:  uint64(size - 1),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
	}
}

func (t *tagIndex) home(tag int64) uint64 {
	return (uint64(tag) * 0x9E3779B97F4A7C15) >> t.shift
}

func (t *tagIndex) get(tag int64) int {
	i := t.home(tag)
	for t.used[i] {
		if t.keys[i] == tag {
			return int(t.vals[i])
		}
		i = (i + 1) & t.mask
	}
	return -1
}

// put inserts tag (which must not be present).
func (t *tagIndex) put(tag int64, val int32) {
	i := t.home(tag)
	for t.used[i] {
		i = (i + 1) & t.mask
	}
	t.used[i] = true
	t.keys[i] = tag
	t.vals[i] = val
}

// del removes tag if present, backward-shifting any displaced followers
// so probe chains stay contiguous.
func (t *tagIndex) del(tag int64) {
	i := t.home(tag)
	for {
		if !t.used[i] {
			return
		}
		if t.keys[i] == tag {
			break
		}
		i = (i + 1) & t.mask
	}
	j := i
	for {
		t.used[i] = false
		for {
			j = (j + 1) & t.mask
			if !t.used[j] {
				return
			}
			h := t.home(t.keys[j])
			// Move j's entry into the hole at i unless its home lies in
			// (i, j] cyclically (in which case it is still reachable).
			if (j > i && (h <= i || h > j)) || (j < i && h <= i && h > j) {
				break
			}
		}
		t.keys[i], t.vals[i], t.used[i] = t.keys[j], t.vals[j], true
		i = j
	}
}
