package memimg

import (
	"math"
	"math/rand"
	"testing"
)

// TestImageMatchesFlatSlice drives an image and a flat slice of the same
// size through one seeded stream of stores and loads and requires every
// load to agree. Each size is probed at the edges of both halves (0,
// words/2-1, words/2, words-1) before the random addresses, which favor
// the two ends of memory the way globals and the stack do.
func TestImageMatchesFlatSlice(t *testing.T) {
	for _, words := range []int{1, 2, 3, 7, 64, 257, 1000, 1001, 1 << 16, 1<<16 + 1} {
		rng := rand.New(rand.NewSource(int64(words)))
		m := New[int64](words)
		flat := make([]int64, words)
		edges := []int64{0, int64(words/2 - 1), int64(words / 2), int64(words - 1)}
		addr := func(k int) int64 {
			if k < 2*len(edges) {
				return edges[k%len(edges)]
			}
			span := int64(min(words, 2000))
			switch rng.Intn(3) {
			case 0:
				return rng.Int63n(span) // globals
			case 1:
				return int64(words) - 1 - rng.Int63n(span) // stack
			}
			return rng.Int63n(int64(words))
		}
		for k := 0; k < 4000; k++ {
			a := addr(k)
			if a < 0 {
				continue // words == 1 has no word at words/2-1
			}
			if k < len(edges) || rng.Intn(2) == 0 {
				if got := m.Load(a); got != flat[a] {
					t.Fatalf("words %d op %d: Load(%d) = %d, want %d", words, k, a, got, flat[a])
				}
				continue
			}
			v := rng.Int63() - math.MaxInt64/2
			m.Store(a, v)
			flat[a] = v
		}
		for a := range flat {
			if got := m.Load(int64(a)); got != flat[a] {
				t.Fatalf("words %d: final Load(%d) = %d, want %d", words, a, got, flat[a])
			}
		}
		half := words / 2
		if len(m.low) > half || len(m.high) > words-half {
			t.Errorf("words %d: segments %d and %d overrun the halves %d and %d",
				words, len(m.low), len(m.high), half, words-half)
		}
	}
}

// TestImageGrowsOnTouch: segments start empty, grow by doubling to cover
// what is written, and leave the untouched middle unallocated; words
// never written read as zero on either side of and inside the segments.
func TestImageGrowsOnTouch(t *testing.T) {
	const words = 1 << 22
	m := New[int64](words)
	if len(m.low) != 0 || len(m.high) != 0 {
		t.Fatalf("fresh image holds %d + %d words", len(m.low), len(m.high))
	}
	for _, a := range []int64{0, 100, words / 2, words - 1, words/2 - 1} {
		if got := m.Load(a); got != 0 {
			t.Errorf("Load(%d) of a fresh image = %d, want 0", a, got)
		}
	}
	m.Store(64, 1)
	m.Store(words-1, 2)
	if len(m.low) != minSegment || len(m.high) != minSegment {
		t.Fatalf("after one store per end: segments %d and %d, want %d each", len(m.low), len(m.high), minSegment)
	}
	m.Store(minSegment, 3)           // just past the low segment: doubles it
	m.Store(words-1-5*minSegment, 4) // high index 5*minSegment: doubles it three times
	if len(m.low) != 2*minSegment || len(m.high) != 8*minSegment {
		t.Fatalf("after growth: segments %d and %d, want %d and %d", len(m.low), len(m.high), 2*minSegment, 8*minSegment)
	}
	for a, want := range map[int64]int64{64: 1, words - 1: 2, minSegment: 3, words - 1 - 5*minSegment: 4,
		65: 0, words - 2: 0, words / 2: 0, words/2 - 1: 0} {
		if got := m.Load(a); got != want {
			t.Errorf("Load(%d) = %d, want %d", a, got, want)
		}
	}
	// A word written in the middle grows only the segment owning it, and
	// only up to that segment's half.
	m.Store(words/2-1, 5)
	m.Store(words/2, 6)
	if len(m.low) != words/2 || len(m.high) != words/2 {
		t.Errorf("after stores at the split: segments %d and %d, want %d each", len(m.low), len(m.high), words/2)
	}
	if m.Load(words/2-1) != 5 || m.Load(words/2) != 6 || m.Load(64) != 1 || m.Load(words-1) != 2 {
		t.Error("stores at the split lost a word")
	}
}

// TestImageZeroValueOfStruct: a word never written reads as T's zero
// value for a struct element too (refint keeps a cell per word and reads
// a zero cell as uninitialized).
func TestImageZeroValueOfStruct(t *testing.T) {
	type cell struct {
		p    *int
		v    int64
		init bool
	}
	m := New[cell](101)
	x := 7
	m.Store(3, cell{p: &x, v: 1, init: true})
	if c := m.Load(3); c.p != &x || c.v != 1 || !c.init {
		t.Errorf("Load(3) = %+v", c)
	}
	for _, a := range []int64{0, 4, 50, 51, 100} {
		if c := m.Load(a); c != (cell{}) {
			t.Errorf("Load(%d) = %+v, want the zero cell", a, c)
		}
	}
}

// TestImageOutOfRangePanics: an address outside [0, words) panics on
// load and store, written-to segments or not, as a slice index would.
func TestImageOutOfRangePanics(t *testing.T) {
	for _, words := range []int{0, 1, 7, 1024} {
		m := New[int64](words)
		if words > 0 {
			m.Store(0, 1)
			m.Store(int64(words-1), 2)
		}
		for _, a := range []int64{-1, int64(words), int64(words) + 1, math.MinInt64, math.MaxInt64} {
			mustPanic(t, words, "Load", a, func() { m.Load(a) })
			mustPanic(t, words, "Store", a, func() { m.Store(a, 3) })
		}
	}
}

func mustPanic(t *testing.T, words int, op string, a int64, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("words %d: %s(%d) did not panic", words, op, a)
		}
	}()
	f()
}
