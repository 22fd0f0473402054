package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	in := Trace{
		{Addr: 0, Kind: Load},
		{Addr: 99, Kind: Store},
		{Addr: 12345, Kind: Load, Bypass: true},
		{Addr: 7, Kind: Load, Bypass: true, Last: true},
		{Addr: 8, Kind: Store, Bypass: true},
	}
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("rec %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := make(Trace, int(n))
		for i := range in {
			in[i] = Rec{
				Addr:   int64(rng.Intn(1 << 20)),
				Kind:   Kind(rng.Intn(2)),
				Bypass: rng.Intn(2) == 0,
				Last:   rng.Intn(2) == 0,
			}
		}
		var buf bytes.Buffer
		if err := in.Write(&buf); err != nil {
			return false
		}
		out, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	tr, err := Read(strings.NewReader("# header\n\nld 5 b l\n  \nst 6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 {
		t.Fatalf("records = %d, want 2", len(tr))
	}
	if !tr[0].Bypass || !tr[0].Last || tr[0].Kind != Load || tr[0].Addr != 5 {
		t.Errorf("rec 0 = %+v", tr[0])
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"xx 5",
		"ld notanumber",
		"ld 12abc", // trailing garbage: ParseInt must reject the whole field
		"ld 0x10",
		"ld",
		"ld 5 q",
	}
	for _, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("Read(%q) should fail", src)
		}
	}
}

func TestCount(t *testing.T) {
	tr := Trace{
		{Kind: Load, Bypass: true, Last: true},
		{Kind: Store},
		{Kind: Load},
	}
	c := tr.Count()
	if c.Refs != 3 || c.Loads != 2 || c.Stores != 1 || c.Bypass != 1 || c.Last != 1 {
		t.Errorf("counts = %+v", c)
	}
}
