package replay

import (
	"encoding/binary"
	"testing"

	"repro/internal/trace"
)

// FuzzTraceCodec decodes the fuzz input as a reference stream (9 bytes
// per record: a flags byte, then a little-endian address), encodes it,
// and checks every read path against the original: Len, Records and the
// Cursor. Addresses are
// masked to 62 bits — the VM's address space is non-negative, and the
// mask also keeps consecutive deltas inside int64.
func FuzzTraceCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x10, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{
		0x00, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00,
		0x07, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 9*4096 {
			data = data[:9*4096]
		}
		var tr trace.Trace
		for i := 0; i+8 < len(data); i += 9 {
			flags := data[i]
			r := trace.Rec{
				Addr:   int64(binary.LittleEndian.Uint64(data[i+1:])) & (1<<62 - 1),
				Bypass: flags&2 != 0,
				Last:   flags&4 != 0,
			}
			if flags&1 != 0 {
				r.Kind = trace.Store
			}
			tr = append(tr, r)
		}

		enc := EncodeTrace(tr)
		if enc.Len() != len(tr) {
			t.Fatalf("Len = %d, encoded %d records", enc.Len(), len(tr))
		}
		got := enc.Records()
		if len(got) != len(tr) {
			t.Fatalf("Records returned %d records, want %d", len(got), len(tr))
		}
		cur := enc.Cursor()
		for i, want := range tr {
			if got[i] != want {
				t.Fatalf("record %d: decoded %+v, want %+v", i, got[i], want)
			}
			cr, ok := cur.Next()
			if !ok || cr != want {
				t.Fatalf("cursor record %d: %+v ok=%v, want %+v", i, cr, ok, want)
			}
		}
		if _, ok := cur.Next(); ok {
			t.Fatal("cursor yields records past the end")
		}

		// Re-encoding the decoded stream is deterministic byte for byte.
		if re := EncodeTrace(got); re.Size() != enc.Size() {
			t.Fatalf("re-encode size %d, want %d", re.Size(), enc.Size())
		}
	})
}
