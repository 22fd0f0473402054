package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustMemory(t *testing.T, words int, cfg Config) *Memory {
	t.Helper()
	m, err := NewMemory(words, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 1, LineWords: 1},
		{Sets: 3, Ways: 1, LineWords: 1},
		{Sets: 4, Ways: 0, LineWords: 1},
		{Sets: 4, Ways: 1, LineWords: 3},
		{Sets: 4, Ways: 1, LineWords: 1, Policy: MIN},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestBasicHitMiss(t *testing.T) {
	cfg := Config{Sets: 4, Ways: 2, LineWords: 1, Policy: LRU, Dead: DeadOff, HonorBypass: true, Seed: 1}
	m := mustMemory(t, 1024, cfg)
	m.Poke(100, 42)

	if v := m.Load(100, false, false); v != 42 {
		t.Fatalf("load = %d, want 42", v)
	}
	s := m.Stats()
	if s.Misses != 1 || s.Hits != 0 || s.Fetches != 1 {
		t.Errorf("after first load: %+v", s)
	}
	if v := m.Load(100, false, false); v != 42 {
		t.Fatalf("reload = %d", v)
	}
	s = m.Stats()
	if s.Hits != 1 {
		t.Errorf("second load should hit: %+v", s)
	}
}

func TestWriteBack(t *testing.T) {
	// Direct-mapped single line: storing to two conflicting addresses
	// forces a writeback of the first.
	cfg := Config{Sets: 1, Ways: 1, LineWords: 1, Policy: LRU, Dead: DeadOff, HonorBypass: true, Seed: 1}
	m := mustMemory(t, 1024, cfg)
	m.Store(10, 7, false, false)
	if got := m.Stats().StoreAllocs; got != 1 {
		t.Errorf("store-alloc = %d, want 1 (no fetch on 1-word store miss)", got)
	}
	if m.mem.Load(10) != 0 {
		t.Error("store went straight to memory; should be cached dirty")
	}
	m.Store(20, 8, false, false) // evicts dirty line 10
	if m.mem.Load(10) != 7 {
		t.Errorf("writeback missing: mem[10] = %d, want 7", m.mem.Load(10))
	}
	if m.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", m.Stats().Writebacks)
	}
	if v := m.Load(10, false, false); v != 7 {
		t.Errorf("reload after writeback = %d, want 7", v)
	}
}

func TestBypassLoadAndStore(t *testing.T) {
	cfg := DefaultConfig()
	m := mustMemory(t, 1024, cfg)
	m.Poke(64, 5)
	if v := m.Load(64, true, false); v != 5 {
		t.Fatalf("bypass load = %d", v)
	}
	s := m.Stats()
	if s.BypassReads != 1 || s.CachedRefs != 0 || s.Fetches != 0 {
		t.Errorf("bypass load stats: %+v", s)
	}
	m.Store(65, 9, true, false)
	if m.mem.Load(65) != 9 {
		t.Error("bypass store must write memory directly")
	}
	if m.Stats().BypassWrites != 1 {
		t.Errorf("bypass writes = %d", m.Stats().BypassWrites)
	}
}

func TestUmAmLoadHitKillsLine(t *testing.T) {
	// The paper's UmAm_LOAD: a spill store caches the value; the final
	// reload reads it from cache and marks the line empty, avoiding the
	// writeback of a dead dirty line.
	cfg := DefaultConfig() // DeadInvalidate
	m := mustMemory(t, 1024, cfg)
	m.Store(40, 123, false, false) // AmSp_STORE: dirty line in cache
	if v := m.Load(40, true, true); v != 123 {
		t.Fatalf("UmAm reload = %d, want 123 from cache", v)
	}
	s := m.Stats()
	if s.DeadMarks != 1 || s.DeadDiscards != 1 {
		t.Errorf("dead mark stats: %+v", s)
	}
	if s.Writebacks != 0 {
		t.Errorf("dead line must not be written back")
	}
	// The line is gone: a cached load misses now (value still correct from
	// the paper's perspective only if the compiler marked truly-dead data;
	// the model intentionally discards).
	if m.resident(40) {
		t.Error("line should be invalidated after last reload")
	}
}

// resident reports whether the line holding addr is cached.
func (m *Memory) resident(addr int64) bool {
	tag := addr >> m.lwShift
	return m.c.Lookup(int(tag&m.setMask), tag) >= 0
}

func TestNonFinalReloadKeepsLine(t *testing.T) {
	cfg := DefaultConfig()
	m := mustMemory(t, 1024, cfg)
	m.Store(40, 123, false, false)
	if v := m.Load(40, true, false); v != 123 { // reload, not last
		t.Fatalf("reload = %d", v)
	}
	if v := m.Load(40, true, true); v != 123 { // final reload
		t.Fatalf("final reload = %d", v)
	}
	s := m.Stats()
	if s.BypassReads != 0 {
		t.Errorf("both reloads should be served by the cache: %+v", s)
	}
}

func TestDeadDemote(t *testing.T) {
	cfg := Config{Sets: 1, Ways: 2, LineWords: 1, Policy: LRU, Dead: DeadDemote, HonorBypass: true, Seed: 1}
	m := mustMemory(t, 1024, cfg)
	m.Load(1, false, false)
	m.Load(2, false, true) // most recently used, but dead-demoted
	m.Load(3, false, false)
	// Victim must have been line 2 (demoted), so 1 must still be resident.
	if !m.resident(1) {
		t.Error("line 1 was evicted; demoted line 2 should have been the victim")
	}
	if m.resident(2) {
		t.Error("line 2 should have been replaced")
	}
}

func TestDeadMarkMultiWordDirtyLineDemotesNotDiscards(t *testing.T) {
	cfg := Config{Sets: 4, Ways: 1, LineWords: 4, Policy: LRU, Dead: DeadInvalidate, HonorBypass: true, Seed: 1}
	m := mustMemory(t, 1024, cfg)
	m.Store(100, 1, false, false) // dirty 4-word line 100..103
	m.Store(101, 2, false, true)  // dead-mark; dirty multi-word: demote only
	if !m.resident(100) {
		t.Fatal("multi-word dirty line must not be discarded by dead marking")
	}
	// Force eviction; the sibling word must survive via writeback.
	m.Store(164, 9, false, false) // same set (164/4=41, 100/4=25... ensure conflict)
	m.FlushAll()
	if m.mem.Load(100) != 1 || m.mem.Load(101) != 2 {
		t.Errorf("sibling words lost: mem[100]=%d mem[101]=%d", m.mem.Load(100), m.mem.Load(101))
	}
}

func TestPeekSeesDirtyData(t *testing.T) {
	m := mustMemory(t, 1024, DefaultConfig())
	m.Store(30, 77, false, false)
	if v := m.Peek(30); v != 77 {
		t.Errorf("Peek = %d, want dirty 77", v)
	}
	if m.mem.Load(30) != 0 {
		t.Error("memory should still be stale before writeback")
	}
}

func TestFlushAll(t *testing.T) {
	m := mustMemory(t, 1024, DefaultConfig())
	for i := int64(0); i < 10; i++ {
		m.Store(i*8, i, false, false)
	}
	m.FlushAll()
	for i := int64(0); i < 10; i++ {
		if m.mem.Load(i*8) != i {
			t.Errorf("mem[%d] = %d after flush, want %d", i*8, m.mem.Load(i*8), i)
		}
	}
}

func TestRandomPolicyIsDeterministic(t *testing.T) {
	cfg := Config{Sets: 2, Ways: 2, LineWords: 1, Policy: Random, Dead: DeadOff, HonorBypass: true, Seed: 42}
	run := func() Stats {
		m := mustMemory(t, 4096, cfg)
		for i := 0; i < 2000; i++ {
			m.Load(int64((i*37)%512), false, false)
		}
		return m.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("random policy not reproducible: %+v vs %+v", a, b)
	}
}

// TestMemoryZeroAllocs guards the VM-facing hot path: once a Memory is
// built, Load and Store must not allocate — lookup, victim selection
// (including Random's reservoir-free draw), dead marking, and writeback
// all run on preallocated state. A regression here slows every simulated
// instruction.
func TestMemoryZeroAllocs(t *testing.T) {
	for _, cfg := range []Config{
		{Sets: 32, Ways: 2, LineWords: 1, Policy: LRU, Dead: DeadInvalidate, HonorBypass: true, Seed: 1},
		{Sets: 4, Ways: 4, LineWords: 4, Policy: FIFO, Dead: DeadDemote, HonorBypass: true, Seed: 1},
		{Sets: 8, Ways: 4, LineWords: 1, Policy: Random, Dead: DeadOff, HonorBypass: true, Seed: 7},
	} {
		m := mustMemory(t, 4096, cfg)
		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			addr := int64((i * 37) % 1024)
			if i%3 == 0 {
				m.Store(addr, int64(i), i%5 == 0, i%7 == 0)
			} else {
				m.Load(addr, i%5 == 0, i%7 == 0)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("cfg %+v: %v allocs per reference, want 0", cfg, allocs)
		}
	}
}

// Functional correctness under random access patterns: the cache-fronted
// memory must behave exactly like a flat array for any mix of flags.
func TestMemoryMatchesFlatModelQuick(t *testing.T) {
	type op struct {
		Addr   uint16
		Val    int64
		Store  bool
		Bypass bool
	}
	cfgs := []Config{
		{Sets: 1, Ways: 1, LineWords: 1, Policy: LRU, Dead: DeadInvalidate, HonorBypass: true, Seed: 1},
		{Sets: 4, Ways: 2, LineWords: 1, Policy: FIFO, Dead: DeadDemote, HonorBypass: true, Seed: 1},
		{Sets: 2, Ways: 4, LineWords: 4, Policy: Random, Dead: DeadOff, HonorBypass: false, Seed: 9},
		{Sets: 8, Ways: 2, LineWords: 2, Policy: LRU, Dead: DeadDemote, HonorBypass: true, Seed: 3},
	}
	for ci, cfg := range cfgs {
		cfg := cfg
		f := func(ops []op) bool {
			m, err := NewMemory(1<<16, cfg)
			if err != nil {
				t.Fatal(err)
			}
			flat := make([]int64, 1<<16)
			for _, o := range ops {
				addr := int64(o.Addr)
				// Last-marking a live value may discard it (that is the
				// contract: the bit asserts deadness), so only exercise
				// lastRef=false here; the dead-bit contract is covered by
				// the dedicated tests above.
				if o.Store {
					m.Store(addr, o.Val, o.Bypass, false)
					flat[addr] = o.Val
				} else {
					if got := m.Load(addr, o.Bypass, false); got != flat[addr] {
						t.Logf("cfg %d: load[%d] = %d, want %d", ci, addr, got, flat[addr])
						return false
					}
				}
			}
			// After a full flush, memory must equal the flat model.
			m.FlushAll()
			for a := range flat {
				if m.mem.Load(int64(a)) != flat[a] {
					t.Logf("cfg %d: mem[%d] = %d, want %d", ci, a, m.mem.Load(int64(a)), flat[a])
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(int64(ci)))}); err != nil {
			t.Errorf("cfg %d: %v", ci, err)
		}
	}
}
