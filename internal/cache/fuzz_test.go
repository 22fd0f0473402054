package cache

import (
	"testing"
)

// FuzzCacheModel drives Memory with an arbitrary reference stream decoded
// from fuzz bytes and checks it word-for-word against a flat-memory
// oracle: every load returns what the oracle holds, and after FlushAll the
// backing memory is identical. The last-reference bit is exercised only
// under DeadDemote — under DeadInvalidate a dirty dead line is discarded
// without writeback, which is correct only with the compiler's guarantee
// that the value is dead, a guarantee arbitrary fuzz streams do not give.
// The same stream drives the per-line reference model (reference_test.go),
// whose whole Stats and FaultStats Memory must match. Configuration 4
// attaches an injector that sticks about half the ways and drops one kill
// in three — hint losses only, so the flat oracle still holds — under
// Random replacement, which draws the k-th usable way.
func FuzzCacheModel(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02}, uint8(0))
	f.Add([]byte{0xff, 0x80, 0x41, 0x07, 0x07, 0x07}, uint8(1))
	f.Add([]byte{0x13, 0x37, 0xca, 0xfe, 0x00, 0x00, 0x13, 0x37}, uint8(2))
	f.Fuzz(func(t *testing.T, ops []byte, cfgSel uint8) {
		const words = 1 << 10
		cfg := DefaultConfig()
		var inj func() *testInjector
		switch cfgSel % 5 {
		case 0:
			cfg.Dead = DeadDemote
		case 1:
			cfg.Dead = DeadDemote
			cfg.Policy = FIFO
			cfg.Ways = 4
			cfg.Sets = 8
		case 2:
			cfg.Dead = DeadDemote
			cfg.LineWords = 4
			cfg.ECC = ECCSECDED
		case 3:
			cfg.Dead = DeadInvalidate // last bit never set below for this case
			cfg.Policy = Random
		case 4:
			cfg.Dead = DeadDemote
			cfg.Policy = Random
			cfg.Ways = 4
			cfg.Sets = 4
			cfg.LineWords = 2
			inj = func() *testInjector { return newTestInjector(uint64(cfgSel), 3, 0, 0, 0, 4) }
		}
		p := newDiffPair(t, words, cfg, inj)
		m := p.m
		oracle := make([]int64, words)

		// Each op consumes 3 bytes: flags, addr-hi, addr-lo.
		for i := 0; i+2 < len(ops); i += 3 {
			flags := ops[i]
			addr := (int64(ops[i+1])<<8 | int64(ops[i+2])) % words
			bypass := flags&1 != 0
			last := flags&2 != 0 && cfg.Dead != DeadInvalidate
			if flags&4 != 0 {
				val := int64(int8(flags)) * 1000003
				p.do(t, addr, val, true, bypass, last)
				oracle[addr] = val
			} else {
				if got := p.do(t, addr, 0, false, bypass, last); got != oracle[addr] {
					t.Fatalf("op %d: load[%d] = %d, oracle %d (bypass=%v last=%v cfg=%d)",
						i/3, addr, got, oracle[addr], bypass, last, cfgSel%5)
				}
			}
			if err := m.FaultErr(); err != nil {
				t.Fatalf("fault without a data-corrupting injector: %v", err)
			}
		}
		p.check(t, words) // flushes both
		for a := int64(0); a < words; a++ {
			if got := m.Peek(a); got != oracle[a] {
				t.Fatalf("after flush: mem[%d] = %d, oracle %d", a, got, oracle[a])
			}
		}
		st := m.Stats()
		if st.Hits+st.Misses != st.CachedRefs {
			t.Fatalf("accounting: hits %d + misses %d != cached refs %d", st.Hits, st.Misses, st.CachedRefs)
		}
	})
}
