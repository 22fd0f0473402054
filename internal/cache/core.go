package cache

import "math/bits"

// Core is the cache's tag, replacement and dead-marking state: the
// hardware contract of §3.2/§4.3 written once. Memory wraps it with the
// data a cache carries (ECC and fault injection included); trace replay
// (internal/replay) wraps it with Belady's MIN, occupancy sampling and a
// tag index for wide sets. The per-line reference model it replaced is
// kept in reference_test.go, which Memory is diffed against.
//
// Line state lives in parallel slices indexed set*ways+way. Per-set
// bitsets (wps words each) hold the invalid and the dead-demoted ways, so
// the victim pre-scans are find-first-set; stuck ways (fault injection)
// are a third bitset, nil when no way is stuck. Everything is allocated
// at construction: no reference allocates.
//
// A reference is one of three paths, each a short sequence of calls:
//
//	bypass:      BypassRef, then DeadMark on a hit with the last bit
//	cached hit:  Hit, then DeadMark with the last bit
//	cached miss: Victim (or Free and the caller's own choice), Replace,
//	             then DeadMark with the last bit
//
// Callers compute set and tag themselves (Memory by shifting, replay by
// dividing) and interleave their own work between the calls.
type Core struct {
	ways, wps int
	policy    Policy
	deadMode  DeadMode
	lw1       bool // LineWords == 1

	valid, dirty, dead    []bool
	tags, last, seq, refs []int64

	invalid, deadbs []uint64 // per-set way bitsets
	stuck           []uint64 // per-set stuck ways; nil when none is stuck

	tick int64
	rng  uint64
	st   Stats
}

// NewCore builds the state of an empty cache with cfg's geometry, policy
// and dead-marking mode. cfg must be valid (MIN allowed: the caller
// supplies MIN's choice through Free). The injector is not consulted.
func NewCore(cfg Config) Core {
	lines := cfg.Lines()
	wps := (cfg.Ways + 63) / 64
	c := Core{
		ways: cfg.Ways, wps: wps, policy: cfg.Policy, deadMode: cfg.Dead,
		lw1:   cfg.LineWords == 1,
		valid: make([]bool, lines), dirty: make([]bool, lines), dead: make([]bool, lines),
		tags: make([]int64, lines), last: make([]int64, lines),
		seq: make([]int64, lines), refs: make([]int64, lines),
		invalid: make([]uint64, cfg.Sets*wps), deadbs: make([]uint64, cfg.Sets*wps),
		rng: cfg.Seed | 1,
	}
	for s := 0; s < cfg.Sets; s++ {
		for k := 0; k < wps; k++ {
			if n := cfg.Ways - k*64; n >= 64 {
				c.invalid[s*wps+k] = ^uint64(0)
			} else {
				c.invalid[s*wps+k] = 1<<uint(n) - 1
			}
		}
	}
	return c
}

// stickWays marks every (set, way) that stuck reports as stuck. A stuck
// way never holds a line: it leaves the invalid bitset, so Free never
// returns it, and Victim's policy scans skip it.
func (c *Core) stickWays(stuck func(set, way int) bool) {
	sets := len(c.invalid) / c.wps
	for s := 0; s < sets; s++ {
		for w := 0; w < c.ways; w++ {
			if !stuck(s, w) {
				continue
			}
			if c.stuck == nil {
				c.stuck = make([]uint64, len(c.invalid))
			}
			c.stuck[s*c.wps+w>>6] |= 1 << uint(w&63)
			c.invalid[s*c.wps+w>>6] &^= 1 << uint(w&63)
		}
	}
}

// Stats returns the traffic accounting so far. Every reference is
// either cached or bypassed, so Refs is their sum rather than a counter
// of its own.
func (c *Core) Stats() Stats {
	st := c.st
	st.Refs = st.CachedRefs + st.BypassRefs
	return st
}

// Tag returns the tag line li holds or last held.
func (c *Core) Tag(li int) int64 { return c.tags[li] }

// Lookup returns the line of set holding tag, or -1.
func (c *Core) Lookup(set int, tag int64) int {
	base := set * c.ways
	for li := base; li < base+c.ways; li++ {
		// Tag compared first — it almost always decides; the valid check
		// guards against a stale tag left on an invalidated line.
		if c.tags[li] == tag && c.valid[li] {
			return li
		}
	}
	return -1
}

// touch refreshes a referenced line's recency.
func (c *Core) touch(li int) {
	c.tick++
	c.last[li] = c.tick
	c.refs[li]++
}

// BypassRef accounts a reference whose bypass bit is honored; li is its
// line (-1 when not cached). A bypass load is answered by a cached copy
// when there is one (UmAm_LOAD), a bypass store always writes memory and
// refreshes the cached copy; either way a hit refreshes the line's
// recency but leaves a demoted line demoted.
func (c *Core) BypassRef(li int, store bool) {
	c.st.BypassRefs++
	switch {
	case store:
		c.st.BypassWrites++
	case li < 0:
		c.st.BypassReads++
	}
	if li >= 0 {
		c.touch(li)
	}
}

// Hit accounts a cached reference that hit line li of set. A referenced
// line is alive after all: a demotion is undone, and a store dirties it.
func (c *Core) Hit(li, set int, store bool) {
	c.st.CachedRefs++
	c.st.Hits++
	c.touch(li)
	if store {
		c.dirty[li] = true
	}
	if c.dead[li] { // setDead by hand, which keeps Hit inlinable
		c.dead[li] = false
		w := li - set*c.ways
		c.deadbs[set*c.wps+w>>6] &^= 1 << uint(w&63)
	}
}

// Free returns set's first invalid way, else its first dead-demoted way,
// or -1. Empty lines are always preferred — the paper's "simple
// placement instead of line-replace" benefit of dead marking.
func (c *Core) Free(set int) int {
	if li := c.first(c.invalid, set); li >= 0 {
		return li
	}
	return c.first(c.deadbs, set)
}

// first returns the line of set's first way in the per-set bitset bs,
// or -1.
func (c *Core) first(bs []uint64, set int) int {
	for k, v := range bs[set*c.wps : (set+1)*c.wps] {
		if v != 0 {
			return set*c.ways + k<<6 + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// usable reports whether way w of set can hold a line (is not stuck).
func (c *Core) usable(set, w int) bool {
	return c.stuck == nil || c.stuck[set*c.wps+w>>6]>>uint(w&63)&1 == 0
}

// Victim picks the line of set a miss replaces: Free's choice, else the
// policy's (LRU and MIN fall back to least recently used). It returns -1
// only when every way of set is stuck.
func (c *Core) Victim(set int) int {
	if li := c.first(c.invalid, set); li >= 0 {
		return li
	}
	if li := c.first(c.deadbs, set); li >= 0 {
		return li
	}
	switch c.policy {
	case FIFO:
		return c.oldest(c.seq, set)
	case Random:
		// One draw selects the k-th usable way.
		base, n := set*c.ways, c.ways
		if c.stuck == nil {
			return base + int(c.nextRand()%uint64(n))
		}
		for k := 0; k < c.wps; k++ {
			n -= bits.OnesCount64(c.stuck[set*c.wps+k])
		}
		if n == 0 {
			return -1
		}
		k := int(c.nextRand() % uint64(n))
		for w := 0; ; w++ {
			if c.usable(set, w) {
				if k == 0 {
					return base + w
				}
				k--
			}
		}
	}
	return c.oldest(c.last, set)
}

// oldest returns the usable line of set with the smallest stamp (the
// first of equals), or -1 when every way is stuck.
func (c *Core) oldest(stamp []int64, set int) int {
	base := set * c.ways
	if c.stuck == nil {
		s := stamp[base : base+c.ways]
		best, least := 0, s[0]
		for w := 1; w < len(s); w++ {
			if s[w] < least {
				best, least = w, s[w]
			}
		}
		return base + best
	}
	best := -1
	for w := 0; w < c.ways; w++ {
		if c.usable(set, w) && (best < 0 || stamp[base+w] < stamp[best]) {
			best = base + w
		}
	}
	return best
}

// Replace places tag in line li of set, Victim's (or the caller's)
// choice, for a cached miss, and reports whether li held a line, which it
// evicts: a dirty one is written back unless lost reports that the memory
// system dropped the writeback. A load fetches the new line; a store to
// a one-word line overwrites all of it and allocates without a fetch,
// while a store to a wider line fetches the siblings first.
func (c *Core) Replace(li, set int, tag int64, store, lost bool) bool {
	evicted := c.valid[li]
	if evicted {
		c.st.Evictions++
		if c.refs[li] == 1 {
			c.st.SingleUseFills++
		}
		if c.dirty[li] && !lost {
			c.st.Writebacks++
		}
		c.setDead(li, set, false)
	} else {
		w := li - set*c.ways
		c.invalid[set*c.wps+w>>6] &^= 1 << uint(w&63)
	}
	c.st.CachedRefs++
	c.st.Misses++
	if store && c.lw1 {
		c.st.StoreAllocs++
	} else {
		c.st.Fetches++
	}
	c.valid[li] = true
	c.dirty[li] = store
	c.tags[li] = tag
	c.refs[li] = 1
	c.tick++
	c.last[li] = c.tick
	c.seq[li] = c.tick
	return evicted
}

// uncached accounts a cached miss in a set whose ways are all stuck: the
// reference degrades to an uncached access.
func (c *Core) uncached(store bool) {
	c.st.CachedRefs++
	c.st.Misses++
	if store {
		c.st.BypassWrites++
	} else {
		c.st.BypassReads++
	}
}

// DeadMark applies the last-reference bit to resident line li of set and
// reports whether it invalidated the line. DeadDemote makes the line the
// preferred victim. DeadInvalidate empties it, discarding a dirty
// one-word line without writeback (the value is dead by compiler
// guarantee); a dirty multi-word line is demoted instead, since sibling
// words may still be live.
func (c *Core) DeadMark(li, set int) bool {
	if c.deadMode == DeadOff {
		return false
	}
	c.st.DeadMarks++
	if c.deadMode == DeadInvalidate && (!c.dirty[li] || c.lw1) {
		if c.dirty[li] {
			c.st.DeadDiscards++ // writeback avoided: value is dead
		}
		if c.refs[li] == 1 {
			c.st.SingleUseFills++
		}
		c.invalidate(li, set)
		return true
	}
	c.setDead(li, set, true)
	c.last[li] = -1 // least recently used
	c.seq[li] = -1  // first in
	return false
}

func (c *Core) invalidate(li, set int) {
	c.valid[li] = false
	c.dirty[li] = false
	c.setDead(li, set, false)
	w := li - set*c.ways
	c.invalid[set*c.wps+w>>6] |= 1 << uint(w&63)
}

func (c *Core) setDead(li, set int, v bool) {
	if c.dead[li] == v {
		return
	}
	c.dead[li] = v
	w := li - set*c.ways
	if v {
		c.deadbs[set*c.wps+w>>6] |= 1 << uint(w&63)
	} else {
		c.deadbs[set*c.wps+w>>6] &^= 1 << uint(w&63)
	}
}

// nextRand is xorshift64*, seeded from Config.Seed; Random draws one
// value per replacement decision.
func (c *Core) nextRand() uint64 {
	x := c.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	c.rng = x
	return x * 0x2545F4914F6CDD1D
}
