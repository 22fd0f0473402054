package replay

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/trace"
)

// The engine replays a trace through cache.Core, the protocol
// cache.Memory executes, and adds what only a trace-driven replay has:
// Belady's MIN, a set-shard filter, dead-occupancy sampling and, for
// wide sets (e.g. E2's 256-way fully-associative sweeps), an
// open-addressed hash index in place of the core's way scan. Everything
// is allocated at construction; the per-reference step allocates
// nothing — a property enforced by TestReplayZeroAllocs.
//
// Dead occupancy counts a sampled resident line as dead when it will
// never be referenced again. Any reference to a resident line touches
// it, so a resident line is dead exactly when its most recent touch was
// the final reference to its line address in the whole trace. The engine
// therefore needs only a line-address → final-reference-index map
// (memory flat in trace length), not a per-record next-use array —
// except under MIN, whose Belady victim choice genuinely requires
// per-record future knowledge (Encoded.nextUses, built per replay call).

// sampleEvery is the occupancy sampling stride, in references.
const sampleEvery = 64

// directLookupMaxWays is the associativity above which tag lookup
// switches from a linear way scan to the hash index.
const directLookupMaxWays = 8

type engine struct {
	c       cache.Core
	ways    int
	lw      int64
	setMask int64
	lo, hi  int // set shard [lo, hi)
	honor   bool

	idx *tagIndex // tag → line index; nil when ways <= directLookupMaxWays

	// MIN future knowledge (nil otherwise): each record's next use, and
	// the next use stored at each line's latest touch.
	nextUse []int32
	nuse    []int32

	// Dead-occupancy measurement (MeasureBatch only).
	measure  bool
	finalBit []uint64 // bit per record: final touch of its line (non-MIN)
	deadRes  []bool   // line's last touch was its final reference
	refs     int64    // references stepped: the sampling clock
	validCnt int
	deadNow  int
	linesF   float64
	occSum   float64
	resSum   float64
	samples  int
}

func newEngine(cfg cache.Config, lo, hi int) *engine {
	eng := &engine{
		c:       cache.NewCore(cfg),
		ways:    cfg.Ways,
		lw:      int64(cfg.LineWords),
		setMask: int64(cfg.Sets - 1),
		lo:      lo,
		hi:      hi,
		honor:   cfg.HonorBypass,
		linesF:  float64(cfg.Lines()),
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
	c := &eng.c
	store := r.Kind == trace.Store
	li := eng.lookup(set, tag)
	switch {
	case r.Bypass && eng.honor:
		c.BypassRef(li, store)
	case li >= 0:
		c.Hit(li, set, store)
	default:
		li = eng.victim(set)
		if old := c.Tag(li); c.Replace(li, set, tag, store, false) {
			eng.dropped(li, old)
		}
		if eng.idx != nil {
			eng.idx.put(tag, int32(li))
		}
		if eng.measure {
			eng.validCnt++
		}
	}
	if li >= 0 {
		eng.noteTouch(li, i)
		if r.Last && c.DeadMark(li, set) {
			eng.dropped(li, tag)
		}
	}
	eng.maybeSample()
}

func (eng *engine) lookup(set int, tag int64) int {
	if eng.idx != nil {
		return eng.idx.get(tag)
	}
	return eng.c.Lookup(set, tag)
}

// victim is the core's choice, except that under MIN a line is replaced
// by the resident line whose next use lies farthest ahead.
func (eng *engine) victim(set int) int {
	if eng.nuse == nil {
		return eng.c.Victim(set)
	}
	if li := eng.c.Free(set); li >= 0 {
		return li
	}
	base := set * eng.ways
	best := base
	for li := base + 1; li < base+eng.ways; li++ {
		if eng.nuse[li] > eng.nuse[best] {
			best = li
		}
	}
	return best
}

// dropped updates the tag index and the occupancy counts after the core
// emptied line li, which held tag.
func (eng *engine) dropped(li int, tag int64) {
	if eng.idx != nil {
		eng.idx.del(tag)
	}
	if eng.measure {
		eng.validCnt--
		if eng.deadRes[li] {
			eng.deadRes[li] = false
			eng.deadNow--
		}
	}
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
	eng.refs++
	if eng.refs%sampleEvery == 0 {
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
