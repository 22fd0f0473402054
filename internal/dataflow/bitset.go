// Package dataflow implements the bit-vector dataflow framework used by the
// middle end: liveness of virtual registers and, from it, web construction
// (the paper's "user-name splitting", §4.1.1.1 Definition 2).
package dataflow

import "math/bits"

// BitSet is a dense bit vector.
type BitSet []uint64

// NewBitSet returns a set capable of holding n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// slab carves equal-sized bit sets out of one allocation, for the
// per-block sets of a dataflow problem.
type slab struct {
	words []uint64
	w     int // words per set
}

// newSlab holds n sets of nbits bits each.
func newSlab(n, nbits int) *slab {
	w := (nbits + 63) / 64
	return &slab{words: make([]uint64, n*w), w: w}
}

// next returns the slab's next empty set.
func (s *slab) next() BitSet {
	b := BitSet(s.words[:s.w:s.w])
	s.words = s.words[s.w:]
	return b
}

// sets returns the slab's next n sets.
func (s *slab) sets(n int) []BitSet {
	out := make([]BitSet, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// Set adds bit i.
func (s BitSet) Set(i int) { s[i/64] |= 1 << uint(i%64) }

// Clear removes bit i.
func (s BitSet) Clear(i int) { s[i/64] &^= 1 << uint(i%64) }

// Has reports whether bit i is present.
func (s BitSet) Has(i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }

// rank returns the number of bits of s below bit i.
func (s BitSet) rank(i int) int {
	n := bits.OnesCount64(s[i/64] & (1<<uint(i%64) - 1))
	for _, w := range s[:i/64] {
		n += bits.OnesCount64(w)
	}
	return n
}

// Copy returns an independent copy of s.
func (s BitSet) Copy() BitSet {
	c := make(BitSet, len(s))
	copy(c, s)
	return c
}

// UnionWith adds all bits of o to s and reports whether s changed.
func (s BitSet) UnionWith(o BitSet) bool {
	changed := false
	for i, w := range o {
		nw := s[i] | w
		if nw != s[i] {
			s[i] = nw
			changed = true
		}
	}
	return changed
}

// DiffWith removes all bits of o from s.
func (s BitSet) DiffWith(o BitSet) {
	for i, w := range o {
		s[i] &^= w
	}
}

// IntersectWith keeps only bits present in both.
func (s BitSet) IntersectWith(o BitSet) {
	for i := range s {
		s[i] &= o[i]
	}
}

// Equal reports whether s and o hold the same bits.
func (s BitSet) Equal(o BitSet) bool {
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Empty reports whether no bits are set.
func (s BitSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (s BitSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn for every set bit in ascending order.
func (s BitSet) ForEach(fn func(i int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// Elems returns the set bits in ascending order.
func (s BitSet) Elems() []int {
	var out []int
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}
