package replay

import (
	"encoding/binary"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// fuzzRecords reads fuzz input as a reference stream, 9 bytes per
// record: a flags byte (bit 0 store, bit 1 bypass, bit 2 last), then a
// little-endian address, ANDed with mask. Input past 4096 records is
// ignored.
func fuzzRecords(data []byte, mask int64) trace.Trace {
	if len(data) > 9*4096 {
		data = data[:9*4096]
	}
	var tr trace.Trace
	for i := 0; i+8 < len(data); i += 9 {
		flags := data[i]
		r := trace.Rec{
			Addr:   int64(binary.LittleEndian.Uint64(data[i+1:])) & mask,
			Bypass: flags&2 != 0,
			Last:   flags&4 != 0,
		}
		if flags&1 != 0 {
			r.Kind = trace.Store
		}
		tr = append(tr, r)
	}
	return tr
}

// fuzzBytes is fuzzRecords' inverse, for seeding a corpus from a trace.
func fuzzBytes(tr trace.Trace) []byte {
	out := make([]byte, 0, 9*len(tr))
	for _, r := range tr {
		var flags byte
		if r.Kind == trace.Store {
			flags |= 1
		}
		if r.Bypass {
			flags |= 2
		}
		if r.Last {
			flags |= 4
		}
		out = binary.LittleEndian.AppendUint64(append(out, flags), uint64(r.Addr))
	}
	return out
}

// FuzzTraceCodec decodes the fuzz input as a reference stream
// (fuzzRecords), encodes it, and checks every read path against the
// original: Len, Records and the Cursor. Addresses are masked to 62
// bits — the VM's address space is non-negative, and the mask also keeps
// consecutive deltas inside int64.
func FuzzTraceCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x10, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{
		0x00, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00,
		0x07, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzRecords(data, 1<<62-1)
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

// FuzzReplayKernel holds the two-way kernel to the engine it
// specialises: on the fuzz input's reference stream (fuzzRecords, with
// addresses below 64 words so that lines collide in every set), replay2
// must return the engine's Stats for every 2-way configuration — LRU,
// FIFO and Random, each dead mode, bypass honoured or not, one- and
// four-word lines.
func FuzzReplayKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		0x00, 0x01, 0, 0, 0, 0, 0, 0, 0,
		0x01, 0x09, 0, 0, 0, 0, 0, 0, 0,
		0x04, 0x11, 0, 0, 0, 0, 0, 0, 0,
		0x05, 0x01, 0, 0, 0, 0, 0, 0, 0,
	})
	f.Add(fuzzBytes(randomTrace(15, 2000)))
	var cfgs []cache.Config
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random} {
		for _, dead := range []cache.DeadMode{cache.DeadOff, cache.DeadInvalidate, cache.DeadDemote} {
			for _, hb := range []bool{false, true} {
				for _, lw := range []int{1, 4} {
					cfgs = append(cfgs, cache.Config{Sets: 4, Ways: 2, LineWords: lw,
						Policy: pol, Dead: dead, HonorBypass: hb, Seed: 5})
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		enc := EncodeTrace(fuzzRecords(data, 63))
		for _, cfg := range cfgs {
			eng := newReplayEngine(enc, cfg, 0, cfg.Sets, false, nil)
			eng.run(enc)
			if got := replay2(enc, cfg); got != eng.c.Stats() {
				t.Fatalf("cfg %+v:\nkernel = %+v\nengine = %+v", cfg, got, eng.c.Stats())
			}
		}
	})
}
