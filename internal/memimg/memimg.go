// Package memimg is the word-addressed memory image shared by the
// machine models: the VM's cache-fronted memory (internal/cache), the IR
// interpreter and the reference interpreter. Programs lay their globals
// out upward from a small base address and their stack downward from
// the top of memory, and touch a few kilobytes of a multi-megabyte
// address space, so an image holds two segments that grow on first
// write: a low one [0, len(low)) and a high one [words-len(high), words).
// Each segment owns one half of the address space and never grows past
// it. A word never written reads as T's zero value.
package memimg

// minSegment is the length a segment takes on its first write.
const minSegment = 256

// Image is a memory of a fixed number of words of type T. The zero
// Image has no words; use New. An Image is not safe for concurrent use.
type Image[T any] struct {
	words int64
	half  int64 // low owns [0, half), high owns [half, words)
	low   []T   // low[a] holds address a
	high  []T   // high[i] holds address words-1-i
}

// New returns an image of words words, every one reading as zero. It
// allocates nothing for the words themselves until they are written.
func New[T any](words int) *Image[T] {
	return &Image[T]{words: int64(words), half: int64(words) / 2}
}

// Words returns the image's size in words.
func (m *Image[T]) Words() int { return int(m.words) }

// Load returns the word at address a. An address outside [0, Words())
// panics with the runtime's index-out-of-range error, as indexing a slice
// of Words() elements would.
func (m *Image[T]) Load(a int64) T {
	if a < int64(len(m.low)) {
		return m.low[a] // a < 0 panics here
	}
	if i := m.words - 1 - a; i < int64(len(m.high)) {
		return m.high[i] // a >= Words() panics here
	}
	var zero T // between the segments: never written
	return zero
}

// Store writes v at address a, growing the segment that owns a if a lies
// between the segments. An address outside [0, Words()) panics as in
// Load. A store into the low segment inlines; one anywhere else takes a
// call (a call and two segment tests together overrun the inliner's
// budget).
func (m *Image[T]) Store(a int64, v T) {
	if uint64(a) < uint64(len(m.low)) {
		m.low[a] = v
		return
	}
	m.storeCold(a, v)
}

// storeCold serves a store outside the low segment: into the high one,
// or between the segments after growing the one that owns a. An address
// out of range goes to the high segment, whose index then panics.
//
//go:noinline
func (m *Image[T]) storeCold(a int64, v T) {
	i := m.words - 1 - a
	switch {
	case a < 0 || i < int64(len(m.high)):
	case a < m.half:
		m.low = grow(m.low, a, m.half)
		m.low[a] = v
		return
	default:
		m.high = grow(m.high, i, m.words-m.half)
	}
	m.high[i] = v
}

// grow returns s extended to hold index i: doubled until it does, but
// never longer than limit.
func grow[T any](s []T, i, limit int64) []T {
	n := max(int64(len(s))*2, minSegment)
	for n <= i {
		n *= 2
	}
	t := make([]T, min(n, limit))
	copy(t, s)
	return t
}
