//go:build ignore

// gencorpus regenerates the checked-in seed corpora under testdata/fuzz/
// from the typed program generator: MC sources for FuzzCompile, their
// compiled assembly for FuzzAsmRoundTrip, and access-pattern bytes for
// FuzzCacheModel. Run from the repo root:
//
//	go run gencorpus.go
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/progen"
	"repro/internal/trace"
	"repro/internal/vm"
)

func main() {
	smallKnobs := progen.SmallKnobs()

	// MC sources: compact generated programs plus the reproducers the
	// harness has actually minimized (see examples/difftest).
	var sources []string
	for seed := int64(1); seed <= 8; seed++ {
		sources = append(sources, progen.Source(seed, smallKnobs))
	}
	repros, _ := filepath.Glob("examples/difftest/*.mc")
	for _, p := range repros {
		b, err := os.ReadFile(p)
		check(err)
		sources = append(sources, string(b))
	}
	for i, src := range sources {
		writeCorpus(filepath.Join("testdata", "fuzz", "FuzzCompile"),
			fmt.Sprintf("progen_%02d", i), "string("+strconv.Quote(src)+")")
	}

	// Assembly round-trip corpus: the same programs compiled under both
	// management modes, so the fuzzer starts from realistic instruction
	// mixes (bypass/last-tagged memory ops, calls, branches).
	n := 0
	for seed := int64(1); seed <= 4; seed++ {
		src := progen.Source(seed, smallKnobs)
		for _, cfg := range []core.Config{
			{Mode: core.Unified, Optimize: true},
			{Mode: core.Conventional},
		} {
			c, err := core.Compile(src, cfg)
			check(err)
			p, err := codegen.Generate(c)
			check(err)
			writeCorpus(filepath.Join("internal", "isa", "testdata", "fuzz", "FuzzAsmRoundTrip"),
				fmt.Sprintf("progen_%02d", n), "string("+strconv.Quote(p.Save())+")")
			n++
		}
	}

	// Cache-model corpus: access patterns chosen to stress each geometry —
	// a same-set conflict sweep, a tight reuse loop, a bypass-heavy burst,
	// address wraparound, and loads of 16 lines in each of the 4 sets
	// (configuration 4, two-word lines: stuck ways under Random
	// replacement; at configuration byte 39 its injector sticks all four
	// ways of set 0, way 2 of set 1, way 3 of set 2 and ways 0-2 of set 3).
	var sweep []byte
	for i := 0; i < 64; i++ {
		sweep = append(sweep, 0x00, 0x00, byte(8*(i%16)+2*(i/16)))
	}
	patterns := []struct {
		ops []byte
		cfg uint8
	}{
		{[]byte{0x00, 0x40, 0x80, 0xc0, 0x00, 0x40, 0x80, 0xc0}, 0},
		{[]byte{0x10, 0x10, 0x11, 0x11, 0x10, 0x90, 0x10}, 1},
		{[]byte{0xff, 0xbf, 0x7f, 0x3f, 0xff, 0xbf, 0x7f, 0x3f, 0x01}, 2},
		{[]byte{0x00, 0xff, 0x00, 0xff, 0x80, 0x7f, 0x80, 0x7f}, 3},
		{sweep, 39},
	}
	for i, p := range patterns {
		body := fmt.Sprintf("[]byte(%s)\nuint8(%d)", strconv.Quote(string(p.ops)), p.cfg)
		writeCorpus(filepath.Join("internal", "cache", "testdata", "fuzz", "FuzzCacheModel"),
			fmt.Sprintf("pattern_%02d", i), body)
	}

	// Trace-codec corpus: prefixes of real benchmark reference streams in
	// FuzzTraceCodec's 9-byte record format (flags, little-endian
	// address), so the fuzzer starts from the delta distributions and
	// flag mixes the encoder actually sees.
	for i, b := range bench.All()[:2] {
		c, err := core.Compile(b.Source, core.Config{Mode: core.Unified})
		check(err)
		p, err := codegen.Generate(c)
		check(err)
		var refs []trace.Rec
		_, err = vm.Run(p, vm.Config{
			MaxSteps: 100_000,
			Cache:    cache.DefaultConfig(),
			TraceSink: traceSinkFunc(func(ev vm.RefEvent) {
				if len(refs) < 256 {
					refs = append(refs, ev.Rec)
				}
			}),
		})
		var budget *vm.BudgetError
		if err != nil && !errors.As(err, &budget) {
			check(err)
		}
		buf := make([]byte, 0, 9*len(refs))
		for _, r := range refs {
			flags := byte(0)
			if r.Kind == trace.Store {
				flags |= 1
			}
			if r.Bypass {
				flags |= 2
			}
			if r.Last {
				flags |= 4
			}
			buf = append(buf, flags)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Addr))
		}
		writeCorpus(filepath.Join("internal", "replay", "testdata", "fuzz", "FuzzTraceCodec"),
			fmt.Sprintf("bench_%02d", i), "[]byte("+strconv.Quote(string(buf))+")")
	}
	fmt.Println("corpora regenerated")
}

// traceSinkFunc adapts a function to vm.TraceSink.
type traceSinkFunc func(vm.RefEvent)

func (f traceSinkFunc) Ref(ev vm.RefEvent) { f(ev) }

func writeCorpus(dir, name, body string) {
	check(os.MkdirAll(dir, 0o755))
	check(os.WriteFile(filepath.Join(dir, name),
		[]byte("go test fuzz v1\n"+body+"\n"), 0o644))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gencorpus:", err)
		os.Exit(1)
	}
}
