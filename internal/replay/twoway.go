package replay

import (
	"math/bits"

	"repro/internal/cache"
)

// The two-way kernel is engine.step specialised to a constant
// associativity of 2, the paper's geometry. Each set is one packed
// struct, the tag lookup is two compares folded into a way mask with no
// per-way branch, and the victim choice is a single compare, so the
// whole per-reference cost, decode included, stays below the engine's
// step alone. It implements exactly cache.Core's rules in the engine's
// order (read it line by line against engine.step and Core's BypassRef,
// Hit, Victim, Replace and DeadMark): every counter in cache.Stats
// comes out equal, which TestEngineMatchesMemory, the VM differentials
// and FuzzReplayKernel check. It has no set shard, no occupancy sampling
// and no MIN; MeasureBatch, MIN and sharded Replay stay on the engine.

// twoWay is the one dispatch predicate: configurations it accepts are
// replayed by replay2 wherever a single full-cache, non-measuring replay
// is asked for.
func twoWay(cfg cache.Config) bool {
	return cfg.Ways == 2 && cfg.Policy != cache.MIN
}

// set2 is one set of a 2-way cache. The masks carry a bit per way;
// once stands for the engine's refs == 1, the only comparison the
// engine ever makes on a reference count.
type set2 struct {
	tag, last, seq           [2]int64
	valid, dirty, dead, once uint8
}

// replay2 replays the full stream of enc against a 2-way cfg, which the
// caller has validated, and returns its statistics.
func replay2(enc *Encoded, cfg cache.Config) cache.Stats {
	sets := make([]set2, cfg.Sets)
	setMask := int64(cfg.Sets - 1)
	// tag = addr / LineWords, truncating like the engine's division: the
	// shift rounds toward minus infinity, so negative addresses first
	// add LineWords-1.
	lwShift := uint(bits.TrailingZeros(uint(cfg.LineWords)))
	round := int64(cfg.LineWords - 1)
	honor, lw1 := cfg.HonorBypass, cfg.LineWords == 1
	deadMode, policy := cfg.Dead, cfg.Policy
	rng := cfg.Seed | 1
	var st cache.Stats
	var tick int64
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
			store := b0&1 != 0

			tag := (addr + addr>>63&round) >> lwShift
			s := &sets[tag&setMask]
			st.Refs++
			// At most one valid way holds tag, so hit is 0, 1 or 2.
			hit := (b2u8(s.tag[0] == tag) | b2u8(s.tag[1] == tag)<<1) & s.valid
			var w int
			if b0&2 != 0 && honor {
				st.BypassRefs++
				if hit == 0 {
					if store {
						st.BypassWrites++
					} else {
						st.BypassReads++
					}
					continue
				}
				w = int(hit>>1) & 1
				tick++
				s.last[w] = tick
				s.once &^= hit
				if store {
					// UmAm_STORE updates memory; cached copy refreshed.
					st.BypassWrites++
				}
			} else {
				st.CachedRefs++
				if hit != 0 {
					st.Hits++
					w = int(hit>>1) & 1
					tick++
					s.last[w] = tick
					s.once &^= hit
					if store {
						s.dirty |= hit
					}
					s.dead &^= hit
				} else {
					st.Misses++
					switch free := ^s.valid & 3; {
					case free != 0:
						w = int(free&1 ^ 1) // first invalid way
					case s.dead != 0:
						w = int(s.dead&1 ^ 1) // first dead way
					case policy == cache.FIFO:
						w = int(b2u8(s.seq[1] < s.seq[0]))
					case policy == cache.Random:
						// cache.Core's xorshift64* stream, bit for bit.
						rng ^= rng >> 12
						rng ^= rng << 25
						rng ^= rng >> 27
						w = int(rng * 0x2545F4914F6CDD1D % 2)
					default: // LRU
						w = int(b2u8(s.last[1] < s.last[0]))
					}
					bit := uint8(1) << w
					if s.valid&bit != 0 { // evict
						st.Evictions++
						if s.once&bit != 0 {
							st.SingleUseFills++
						}
						if s.dirty&bit != 0 {
							st.Writebacks++
						}
					}
					s.tag[w] = tag
					s.valid |= bit
					s.dead &^= bit
					s.once |= bit
					tick++
					s.last[w], s.seq[w] = tick, tick
					if store {
						if lw1 {
							st.StoreAllocs++
						} else {
							st.Fetches++
						}
						s.dirty |= bit
					} else {
						st.Fetches++
						s.dirty &^= bit
					}
				}
			}

			if b0&4 == 0 || deadMode == cache.DeadOff {
				continue
			}
			st.DeadMarks++
			bit := uint8(1) << w
			if deadMode == cache.DeadDemote || s.dirty&bit != 0 && !lw1 {
				// Demote; under Invalidate a dirty multi-word line's
				// sibling words may still be live.
				s.dead |= bit
				s.last[w], s.seq[w] = -1, -1
				continue
			}
			if s.dirty&bit != 0 {
				st.DeadDiscards++
			}
			if s.once&bit != 0 {
				st.SingleUseFills++
			}
			s.valid &^= bit
			s.dirty &^= bit
			s.dead &^= bit
		}
	}
	return st
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
