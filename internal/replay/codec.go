// Package replay is the high-throughput trace-replay subsystem: a compact
// streaming encoding of reference traces plus a flat, allocation-free,
// set-shardable replay core with cache.Memory's accounting and Belady's
// MIN on top.
//
// A materialized trace.Trace costs 24+ bytes per reference and must be
// held whole; the encoded form costs ~1.5–2 bytes per reference for real
// programs (delta-encoded addresses, packed control bits) and is consumed
// through a Cursor, so replay memory stays flat in trace length. The VM
// emits the encoding directly through vm.Config.TraceSink, so the replay
// path never materializes a trace.Trace at all.
//
// cache.Memory, which executes the VM's references, is the reference
// model: the differential tests replay what a VM run encoded and require
// the run's own cache statistics back, field for field, at every worker
// count. MIN, which Memory cannot execute, is checked against an
// exhaustive optimal-miss search in the tests.
package replay

import (
	"bufio"
	"io"
	"math/bits"
	"sync"

	"repro/internal/trace"
	"repro/internal/vm"
)

// Encoding format, one record at a time, byte-aligned:
//
//	head byte:  bit 0    kind (1 = store)
//	            bit 1    bypass
//	            bit 2    last
//	            bit 3    more (continuation bytes follow)
//	            bits 4-7 low 4 bits of zigzag(addr delta)
//	cont bytes: 7 payload bits each, bit 7 = more (LEB128)
//
// The address delta is relative to the previous record's address (the
// first record's delta is relative to 0) and zigzag-mapped so small
// negative strides stay small. Records never straddle a chunk boundary,
// so a shard worker can decode any chunk sequence without rejoining
// partial varints.
const (
	chunkSize   = 1 << 16
	maxRecBytes = 1 + 9 // head byte + ceil(60 continuation bits / 7)
)

// Encoder builds an Encoded trace incrementally. It implements
// vm.TraceSink, so a VM run can stream its reference trace straight into
// the encoding. Not safe for concurrent use.
type Encoder struct {
	chunks   [][]byte
	cur      []byte
	prev     int64
	n        int
	finished bool
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	return &Encoder{cur: make([]byte, 0, chunkSize)}
}

// Ref appends one reference record; the event's dynamic outcome is not
// part of the trace. It is the vm.TraceSink method.
func (e *Encoder) Ref(r vm.RefEvent) {
	if len(e.cur)+maxRecBytes > chunkSize {
		e.chunks = append(e.chunks, e.cur)
		e.cur = make([]byte, 0, chunkSize)
	}
	d := r.Addr - e.prev
	z := uint64(d<<1) ^ uint64(d>>63) // zigzag
	b0 := byte(z&0xF) << 4
	z >>= 4
	if r.Kind == trace.Store {
		b0 |= 1
	}
	if r.Bypass {
		b0 |= 2
	}
	if r.Last {
		b0 |= 4
	}
	if z != 0 {
		b0 |= 8
	}
	e.cur = append(e.cur, b0)
	for z != 0 {
		b := byte(z & 0x7F)
		z >>= 7
		if z != 0 {
			b |= 0x80
		}
		e.cur = append(e.cur, b)
	}
	e.prev = r.Addr
	e.n++
}

// Finish seals the encoder and returns the immutable encoded trace. The
// encoder must not be used afterwards.
func (e *Encoder) Finish() *Encoded {
	if e.finished {
		panic("replay: Encoder.Finish called twice") //unilint:ok panicguard API-misuse guard: a second Finish would silently corrupt the stream; unreachable on the VM single-Finish path
	}
	e.finished = true
	chunks := e.chunks
	if len(e.cur) > 0 {
		chunks = append(chunks, e.cur)
	}
	e.chunks, e.cur = nil, nil
	return &Encoded{chunks: chunks, n: e.n}
}

// Encoded is an immutable, compact reference trace. It is safe for
// concurrent readers (shard workers decode it independently); the lazily
// built replay indexes are memoized under a lock.
type Encoded struct {
	chunks [][]byte
	n      int

	mu sync.Mutex
	// finalRef memoizes, per line size, the index of the last reference
	// to each line address — the flat-memory future-knowledge summary
	// Measure's dead-occupancy accounting needs (see engine.go).
	finalRef map[int64]*finalTable
	// finalBit memoizes, per line size, a bitmap with bit i set when
	// record i is the final reference to its line address. The engine
	// reads it sequentially (bit i on step i), so the per-touch finality
	// test costs one well-predicted cached load where a finalTable probe
	// would take a random hash access.
	finalBit map[int64][]uint64
	// nextUse memoizes the per-record next-use index MIN replay needs.
	// Unlike finalRef it is O(refs) memory, so only the most recent line
	// size is kept (experiments replay all MIN variants back to back).
	nextUseLW  int64
	nextUseArr []int32
}

// EncodeTrace encodes a materialized trace (tests and tools; the replay
// path itself encodes straight from the VM).
func EncodeTrace(t trace.Trace) *Encoded {
	e := NewEncoder()
	for _, r := range t {
		e.Ref(vm.RefEvent{Rec: r})
	}
	return e.Finish()
}

// Len returns the number of records.
func (e *Encoded) Len() int { return e.n }

// Size returns the encoded size in bytes.
func (e *Encoded) Size() int {
	total := 0
	for _, c := range e.chunks {
		total += len(c)
	}
	return total
}

// Cursor returns a decoding cursor positioned before the first record.
// The zero cursor of an empty trace reports no records. Cursors are
// values: iteration allocates nothing.
func (e *Encoded) Cursor() Cursor {
	return Cursor{chunks: e.chunks}
}

// Records materializes the trace (tests and tools; the replay engine
// never calls this).
func (e *Encoded) Records() trace.Trace {
	out := make(trace.Trace, 0, e.n)
	c := e.Cursor()
	for {
		r, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Count tallies the stream without materializing it.
func (e *Encoded) Count() trace.Counts {
	var n trace.Counts
	c := e.Cursor()
	for {
		r, ok := c.Next()
		if !ok {
			return n
		}
		n.Refs++
		if r.Kind == trace.Load {
			n.Loads++
		} else {
			n.Stores++
		}
		if r.Bypass {
			n.Bypass++
		}
		if r.Last {
			n.Last++
		}
	}
}

// WriteText streams the trace in the textual format of trace.WriteRec
// without materializing it (cmd/unisim's -trace output path).
func (e *Encoded) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	c := e.Cursor()
	for {
		r, ok := c.Next()
		if !ok {
			return bw.Flush()
		}
		if err := trace.WriteRec(bw, r); err != nil {
			return err
		}
	}
}

// Cursor iterates an Encoded trace. Copy freely; Next on a copy does not
// disturb the original.
type Cursor struct {
	chunks [][]byte
	ci     int
	buf    []byte
	pos    int
	addr   int64
}

// Next decodes one record. ok is false at end of stream (or on a
// truncated stream, which only a hand-built Encoded could produce).
func (c *Cursor) Next() (r trace.Rec, ok bool) {
	if c.pos >= len(c.buf) {
		for {
			if c.ci >= len(c.chunks) {
				return trace.Rec{}, false
			}
			c.buf = c.chunks[c.ci]
			c.ci++
			c.pos = 0
			if len(c.buf) > 0 {
				break
			}
		}
	}
	b0 := c.buf[c.pos]
	c.pos++
	z := uint64(b0 >> 4)
	if b0&8 != 0 {
		shift := uint(4)
		for {
			if c.pos >= len(c.buf) {
				return trace.Rec{}, false
			}
			b := c.buf[c.pos]
			c.pos++
			z |= uint64(b&0x7F) << shift
			if b&0x80 == 0 {
				break
			}
			shift += 7
		}
	}
	c.addr += int64(z>>1) ^ -int64(z&1)
	r.Addr = c.addr
	if b0&1 != 0 {
		r.Kind = trace.Store
	}
	r.Bypass = b0&2 != 0
	r.Last = b0&4 != 0
	return r, true
}

// finalTable maps line address → index of that line's final reference.
// It is an open-addressed hash table with no deletion, so probe chains
// are contiguous and lookups are a few loads — the engine queries it on
// every touch during Measure, where a Go map lookup would dominate the
// per-reference budget. vals < 0 marks an empty slot (final indexes are
// guaranteed < 2^31 by the Measure/MIN length guard).
type finalTable struct {
	keys  []int64
	vals  []int32
	n     int
	mask  uint64
	shift uint
}

func newFinalTable(size int) *finalTable {
	t := &finalTable{
		keys:  make([]int64, size),
		vals:  make([]int32, size),
		mask:  uint64(size - 1),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
	}
	for i := range t.vals {
		t.vals[i] = -1
	}
	return t
}

func (t *finalTable) get(tag int64) int32 {
	i := (uint64(tag) * 0x9E3779B97F4A7C15) >> t.shift
	for {
		v := t.vals[i]
		if v < 0 {
			return -1
		}
		if t.keys[i] == tag {
			return v
		}
		i = (i + 1) & t.mask
	}
}

func (t *finalTable) put(tag int64, idx int32) {
	i := (uint64(tag) * 0x9E3779B97F4A7C15) >> t.shift
	for {
		if t.vals[i] < 0 {
			t.keys[i] = tag
			t.vals[i] = idx
			t.n++
			return
		}
		if t.keys[i] == tag {
			t.vals[i] = idx
			return
		}
		i = (i + 1) & t.mask
	}
}

// finalRefs returns (building and memoizing on first use) the table from
// line address to the index of its final reference under the given line
// size. Memory is proportional to the program's footprint, not the trace
// length, which is what keeps Measure's occupancy accounting flat.
func (e *Encoded) finalRefs(lineWords int64) *finalTable {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.finalRefsLocked(lineWords)
}

func (e *Encoded) finalRefsLocked(lineWords int64) *finalTable {
	if t, ok := e.finalRef[lineWords]; ok {
		return t
	}
	t := newFinalTable(1 << 10)
	c := e.Cursor()
	for i := 0; ; i++ {
		r, ok := c.Next()
		if !ok {
			break
		}
		if 2*t.n >= len(t.keys) {
			grown := newFinalTable(2 * len(t.keys))
			for j, v := range t.vals {
				if v >= 0 {
					grown.put(t.keys[j], v)
				}
			}
			t = grown
		}
		t.put(r.Addr/lineWords, int32(i))
	}
	if e.finalRef == nil {
		e.finalRef = make(map[int64]*finalTable)
	}
	e.finalRef[lineWords] = t
	return t
}

// finalBits returns (building and memoizing per line size) the
// final-reference bitmap: bit i is set when record i is the last
// reference to its line address. Derived from the finalRefs table, so
// memory stays proportional to trace length / 8 plus footprint.
func (e *Encoded) finalBits(lineWords int64) []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if b, ok := e.finalBit[lineWords]; ok {
		return b
	}
	t := e.finalRefsLocked(lineWords)
	b := make([]uint64, (e.n+63)/64)
	for _, v := range t.vals {
		if v >= 0 {
			b[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	if e.finalBit == nil {
		e.finalBit = make(map[int64][]uint64)
	}
	e.finalBit[lineWords] = b
	return b
}

// never32 marks "no future reference" in next-use indexes. Strictly
// greater than any record index the engine accepts.
const never32 = int32(1<<31 - 1)

// nextUses returns (building and memoizing for the most recent line size)
// the per-record next-use index array MIN replay requires. This is the one
// replay mode that inherently costs O(refs) memory — 4 bytes per
// reference, a sixth of a materialized trace.Trace — because Belady
// victims need per-line future knowledge, not just finality.
func (e *Encoded) nextUses(lineWords int64) ([]int32, bool) {
	if e.n >= int(never32) {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.nextUseArr != nil && e.nextUseLW == lineWords {
		return e.nextUseArr, true
	}
	arr := make([]int32, e.n)
	lastSeen := make(map[int64]int32)
	c := e.Cursor()
	for i := int32(0); ; i++ {
		r, ok := c.Next()
		if !ok {
			break
		}
		arr[i] = never32
		la := r.Addr / lineWords
		if p, seen := lastSeen[la]; seen {
			arr[p] = i
		}
		lastSeen[la] = i
	}
	e.nextUseLW = lineWords
	e.nextUseArr = arr
	return arr, true
}
