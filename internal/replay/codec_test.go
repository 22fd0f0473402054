package replay

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// randomTrace builds a deterministic pseudo-random trace exercising
// small strides, large jumps, negative addresses, and all flag
// combinations.
func randomTrace(seed int64, n int) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := make(trace.Trace, 0, n)
	addr := int64(0)
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0:
			addr = rng.Int63n(1 << 40)
		case 1:
			addr = -rng.Int63n(1 << 40)
		case 2:
			addr += rng.Int63n(1<<20) - 1<<19
		default:
			addr += rng.Int63n(16) - 8
		}
		r := trace.Rec{Addr: addr, Bypass: rng.Intn(4) == 0, Last: rng.Intn(8) == 0}
		if rng.Intn(3) == 0 {
			r.Kind = trace.Store
		}
		t = append(t, r)
	}
	return t
}

func TestCodecRoundTrip(t *testing.T) {
	cases := []trace.Trace{
		nil,
		{},
		{{Addr: 0}},
		{{Addr: -1, Kind: trace.Store, Bypass: true, Last: true}},
		{{Addr: 1<<62 - 1}, {Addr: -(1<<62 - 1)}, {Addr: 0}},
		randomTrace(1, 10),
		randomTrace(2, 1000),
		randomTrace(3, 200_000), // spans multiple chunks
	}
	for ci, in := range cases {
		enc := EncodeTrace(in)
		if enc.Len() != len(in) {
			t.Fatalf("case %d: Len = %d, want %d", ci, enc.Len(), len(in))
		}
		out := enc.Records()
		if len(out) != len(in) {
			t.Fatalf("case %d: decoded %d records, want %d", ci, len(out), len(in))
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("case %d: record %d = %+v, want %+v", ci, i, out[i], in[i])
			}
		}
		// Counts agree with the materialized tally.
		if got, want := enc.Count(), trace.Trace(out).Count(); got != want {
			t.Fatalf("case %d: Count = %+v, want %+v", ci, got, want)
		}
	}
}

func TestCodecCompactness(t *testing.T) {
	// Unit-stride references (the common case in real traces) must encode
	// in ~1 byte per record — the memory-flatness claim depends on it.
	tr := make(trace.Trace, 100_000)
	for i := range tr {
		tr[i] = trace.Rec{Addr: int64(i % 4096)}
	}
	enc := EncodeTrace(tr)
	if bpr := float64(enc.Size()) / float64(enc.Len()); bpr > 2 {
		t.Fatalf("unit-stride encoding is %.2f bytes/record, want <= 2", bpr)
	}
}

func TestCursorCopyIndependence(t *testing.T) {
	in := randomTrace(4, 100)
	enc := EncodeTrace(in)
	c1 := enc.Cursor()
	for i := 0; i < 50; i++ {
		c1.Next()
	}
	c2 := c1 // copy mid-stream
	r1, _ := c1.Next()
	r2, _ := c2.Next()
	if r1 != r2 {
		t.Fatalf("copied cursor diverged: %+v vs %+v", r1, r2)
	}
}

// TestWriteTextGolden pins the textual trace format cmd/unisim -trace
// emits: "<ld|st> <addr>", then " b" for bypass and " l" for last
// reference, one record per line.
func TestWriteTextGolden(t *testing.T) {
	in := trace.Trace{
		{Addr: 5, Bypass: true, Last: true},
		{Addr: -3, Kind: trace.Store},
		{Addr: 0},
		{Addr: 1 << 40, Kind: trace.Store, Bypass: true},
		{Addr: 7, Last: true},
	}
	const want = "ld 5 b l\nst -3\nld 0\nst 1099511627776 b\nld 7 l\n"
	var got bytes.Buffer
	if err := EncodeTrace(in).WriteText(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Fatalf("WriteText = %q, want %q", got.String(), want)
	}
}

func TestTagIndexAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	idx := newTagIndex(64)
	ref := make(map[int64]int32)
	live := []int64{}
	for op := 0; op < 200_000; op++ {
		switch {
		case len(ref) < 64 && (len(ref) == 0 || rng.Intn(2) == 0):
			tag := rng.Int63n(512)
			if _, ok := ref[tag]; ok {
				break
			}
			v := int32(rng.Intn(1 << 20))
			idx.put(tag, v)
			ref[tag] = v
			live = append(live, tag)
		default:
			k := rng.Intn(len(live))
			tag := live[k]
			idx.del(tag)
			delete(ref, tag)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		// Spot-check membership on a window of tags.
		for probe := int64(0); probe < 512; probe += 37 {
			want, ok := ref[probe]
			got := idx.get(probe)
			if ok && got != int(want) {
				t.Fatalf("op %d: get(%d) = %d, want %d", op, probe, got, want)
			}
			if !ok && got != -1 {
				t.Fatalf("op %d: get(%d) = %d, want absent", op, probe, got)
			}
		}
	}
}
