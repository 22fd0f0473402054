// Package artifact is a content-addressed cache of compiled UM programs
// and of their simulation results.
//
// The experiment suite and the sweep engine both need the same programs
// over and over: every benchmark × compiler-config pair is simulated
// across dozens of cache geometries, and several experiments (E6, E8)
// re-request configurations another experiment already measured. Keying
// compilations by a hash of (source, compiler config) makes "compile once,
// simulate everywhere" the default — and because the cache is safe for
// concurrent use, the sweep engine's worker pool shares one instance
// without coordination.
//
// Two layers are cached:
//
//   - Build: (source, core.Config) -> compiled + code-generated Artifact.
//     Concurrent requests for the same key compile exactly once.
//   - Run: (artifact, vm.Config) -> *vm.Result. Simulation is
//     deterministic, so a memoized result is indistinguishable from a
//     fresh run. Fault-injected configurations are never memoized.
//
// Beside the run memo, the cache holds one encoded reference trace per
// execution identity (artifact, MemWords, MaxSteps), with the result of
// the traced run that produced it. Every other cache configuration of
// that identity is answered by replaying the trace (RunBatch) or
// measuring it (MeasureBatch) instead of running the VM again.
//
// Persistent entries carry a ReuseClass (session.go) consumed by the
// store GC (gc.go): one-shot traffic inserts bypass-eligible entries,
// campaign traffic inserts live ones, and eviction follows class before
// recency — the paper's bypass policy applied to the store itself.
//
// Cached values are shared: callers must treat the returned Compilation,
// Program and Result as read-only.
package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/replay"
	"repro/internal/vm"
)

// Key is the content address of a compilation: a SHA-256 over the source
// text and every config field that affects generated code.
type Key [sha256.Size]byte

// String renders a short hex prefix for logs and progress lines.
func (k Key) String() string { return hex.EncodeToString(k[:8]) }

// KeyOf computes the content address of (src, cfg). The register palette
// is normalized first so a zero-value Target and an explicit DefaultTarget
// hash identically (they compile identically).
func KeyOf(src string, cfg core.Config) Key {
	tgt := cfg.Target
	if tgt.Colors() == 0 {
		tgt = core.DefaultTarget
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00m%d.s%d.cs%v.ce%v.st%v.o%v.i%v.p%v.c%v",
		src, cfg.Mode, cfg.Strategy, tgt.CallerSaved, tgt.CalleeSaved,
		cfg.StackScalars, cfg.Optimize, cfg.Inline, cfg.PromoteGlobals, cfg.Check)
	var k Key
	h.Sum(k[:0])
	return k
}

// Artifact is one compiled program with its middle-end byproducts.
//
// Comp is nil when the artifact was restored from the persistent store
// (the store keeps the generated machine program and static statistics,
// not the IR). Callers that need the IR — the check and exact analyses —
// must go through BuildIR, which upgrades a disk-restored artifact with a
// fresh full compilation.
type Artifact struct {
	Key    Key
	Comp   *core.Compilation
	Prog   *isa.Program
	Static core.StaticStats
}

// Stats counts cache effectiveness (Hits are requests answered without
// compiling or simulating; Disk* are answers restored from the persistent
// store; Corrupt counts damaged store files that were salvaged by
// recomputing; BatchReplays counts RunBatch misses answered by replaying
// a held trace instead of executing the VM, so RunMisses - BatchReplays
// is the number of VM runs; Measures counts configurations MeasureBatch
// measured).
type Stats struct {
	BuildHits   int64
	BuildMisses int64
	RunHits     int64
	RunMisses   int64

	DiskBuildHits int64
	DiskRunHits   int64
	Corrupt       int64
	WriteErrs     int64
	BatchReplays  int64
	Measures      int64
}

type buildEntry struct {
	once sync.Once
	art  atomic.Pointer[Artifact]
	err  error // written inside once, read only after once.Do returns

	// class is the entry's reuse class (guarded by Cache.mu).
	class ReuseClass

	// full upgrades a disk-restored artifact (Comp == nil) to a complete
	// compilation, once, on first BuildIR demand.
	full    sync.Once
	fullErr error
}

type runEntry struct {
	mu    sync.Mutex
	res   *vm.Result
	err   error
	class ReuseClass // guarded by mu
}

// heldTrace is an execution identity's encoded reference trace (~2 bytes
// per reference, memory only) with the result of the run that encoded it.
type heldTrace struct {
	enc *replay.Encoded
	res *vm.Result
}

// Cache is the content-addressed store. The zero value is not usable; use
// New or NewDisk. All methods are safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	builds map[Key]*buildEntry
	runs   map[string]*runEntry
	traces map[string]*heldTrace // execution identity -> its trace
	stats  Stats

	// protect refcounts store paths that GC must not evict: files being
	// read or written right now (in-flight), and files pinned by an open
	// Session. Guarded by mu.
	protect map[string]int

	// gcMu serializes GC cycles (gc.go); normal traffic never takes it.
	gcMu sync.Mutex

	disk *disk        // nil: memory-only
	warn func(string) // nil: warnings only counted, not reported
}

// New returns an empty memory-only cache.
func New() *Cache {
	return &Cache{
		builds:  make(map[Key]*buildEntry),
		runs:    make(map[string]*runEntry),
		traces:  make(map[string]*heldTrace),
		protect: make(map[string]int),
	}
}

// NewDisk returns a cache backed by a persistent store rooted at dir
// (created if absent). Artifacts and simulation results survive process
// restarts; see disk.go for the format and the corruption policy.
func NewDisk(dir string) (*Cache, error) {
	d, err := openDisk(dir)
	if err != nil {
		return nil, err
	}
	c := New()
	c.disk = d
	return c, nil
}

// HasDisk reports whether the cache has a persistent store (and can
// therefore be garbage-collected).
func (c *Cache) HasDisk() bool { return c.disk != nil }

// SetWarnFunc installs a sink for salvage warnings (corrupt store files
// dropped and recomputed, failed persists). Must be set before first use;
// the callback may be invoked concurrently.
func (c *Cache) SetWarnFunc(f func(string)) { c.warn = f }

func (c *Cache) warnf(format string, args ...any) {
	if c.warn != nil {
		c.warn(fmt.Sprintf(format, args...))
	}
}

// Stats returns a snapshot of the hit/miss counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Cache) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// protectPath shields a store file from GC eviction while a reader,
// writer, or pinning session holds it. Refcounted: nested protection
// (in-flight inside a pinning session) releases correctly.
func (c *Cache) protectPath(p string) {
	if p == "" {
		return
	}
	c.mu.Lock()
	c.protect[p]++
	c.mu.Unlock()
}

func (c *Cache) unprotectPath(p string) {
	if p == "" {
		return
	}
	c.mu.Lock()
	if c.protect[p]--; c.protect[p] <= 0 {
		delete(c.protect, p)
	}
	c.mu.Unlock()
}

// protectedPaths snapshots the protected set for a GC cycle.
func (c *Cache) protectedPaths() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool, len(c.protect))
	for p := range c.protect {
		out[p] = true
	}
	return out
}

// Build compiles src under cfg, or returns the cached artifact for an
// identical request. Concurrent callers with the same key block until the
// single compilation finishes. Compilation errors are cached too: a source
// that fails to compile fails every time.
func (c *Cache) Build(src string, cfg core.Config) (*Artifact, error) {
	art, _, err := c.buildShared(src, cfg, ClassBypass, nil)
	return art, err
}

// BuildShared is Build, additionally reporting whether the request was
// deduplicated onto an existing in-memory entry (an identical compile
// already finished, or is in flight and was awaited). A disk restore on a
// fresh entry is not "shared" — it is a miss served cheaply.
func (c *Cache) BuildShared(src string, cfg core.Config) (*Artifact, bool, error) {
	return c.buildShared(src, cfg, ClassBypass, nil)
}

func (c *Cache) buildShared(src string, cfg core.Config, cls ReuseClass, sess *Session) (*Artifact, bool, error) {
	k := KeyOf(src, cfg)
	e, shared := c.entry(k)
	var path string
	if c.disk != nil {
		path = c.disk.buildPath(k)
		c.protectPath(path)
		defer c.unprotectPath(path)
	}
	e.once.Do(func() { c.fill(e, k, src, cfg, cls) })
	if e.err != nil {
		return nil, shared, e.err
	}
	c.promoteBuild(e, k, cls)
	sess.note(path)
	return e.art.Load(), shared, nil
}

// BuildIR is Build guaranteeing Artifact.Comp is populated: an artifact
// restored from disk (machine program only) is upgraded by one full
// compilation shared by all concurrent BuildIR callers.
func (c *Cache) BuildIR(src string, cfg core.Config) (*Artifact, error) {
	return c.buildIR(src, cfg, ClassBypass, nil)
}

func (c *Cache) buildIR(src string, cfg core.Config, cls ReuseClass, sess *Session) (*Artifact, error) {
	art, _, err := c.buildShared(src, cfg, cls, sess)
	if err != nil || art.Comp != nil {
		return art, err
	}
	e, _ := c.entry(art.Key)
	e.full.Do(func() {
		comp, prog, err := compile(src, cfg)
		if err != nil {
			e.fullErr = err
			return
		}
		e.art.Store(&Artifact{Key: art.Key, Comp: comp, Prog: prog, Static: comp.Stats})
	})
	if e.fullErr != nil {
		return nil, e.fullErr
	}
	return e.art.Load(), nil
}

// entry returns the build entry for k, creating it on first request, and
// reports whether it already existed.
func (c *Cache) entry(k Key) (*buildEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.builds[k]
	if !ok {
		e = &buildEntry{}
		c.builds[k] = e
		c.stats.BuildMisses++
	} else {
		c.stats.BuildHits++
	}
	return e, ok
}

func compile(src string, cfg core.Config) (*core.Compilation, *isa.Program, error) {
	comp, err := core.Compile(src, cfg)
	if err != nil {
		return nil, nil, err
	}
	prog, err := codegen.Generate(comp)
	if err != nil {
		return nil, nil, err
	}
	return comp, prog, nil
}

// fill populates a fresh entry: persistent store first (when configured),
// then a real compilation. Store corruption is salvaged by recomputing;
// permission problems opening the store fail loudly — they mean the cache
// directory is misconfigured, and silently recompiling every request
// would mask it.
func (c *Cache) fill(e *buildEntry, k Key, src string, cfg core.Config, cls ReuseClass) {
	if c.disk != nil {
		art, storedCls, err := c.diskReadBuild(k)
		switch {
		case err != nil:
			e.err = err
			return
		case art != nil:
			c.count(func(s *Stats) { s.DiskBuildHits++ })
			c.mu.Lock()
			e.class = storedCls
			c.mu.Unlock()
			e.art.Store(art)
			return
		}
	}
	comp, prog, err := compile(src, cfg)
	if err != nil {
		e.err = err
		return
	}
	c.mu.Lock()
	e.class = cls
	c.mu.Unlock()
	e.art.Store(&Artifact{Key: k, Comp: comp, Prog: prog, Static: comp.Stats})
	if c.disk != nil {
		if err := c.diskWriteBuild(k, prog, comp.Stats, cls); err != nil {
			// The compile itself succeeded: degrade to memory-only.
			c.count(func(s *Stats) { s.WriteErrs++ })
			c.warnf("artifact: persist build %s: %v", k, err)
		}
	}
}

// promoteBuild upgrades an entry's reuse class (bypass -> live), rewriting
// the persistent entry so the class survives restarts. Downgrades never
// happen: once an entry has shown campaign reuse it stays live until
// evicted.
func (c *Cache) promoteBuild(e *buildEntry, k Key, cls ReuseClass) {
	if cls == ClassBypass {
		return
	}
	c.mu.Lock()
	if e.class >= cls {
		c.mu.Unlock()
		return
	}
	e.class = cls
	c.mu.Unlock()
	if c.disk != nil {
		if art := e.art.Load(); art != nil {
			if err := c.diskWriteBuild(k, art.Prog, art.Static, cls); err != nil {
				c.count(func(s *Stats) { s.WriteErrs++ })
				c.warnf("artifact: promote build %s: %v", k, err)
			}
		}
	}
}

// idKey encodes a run's execution identity: the fields that shape its
// reference stream, which every cache configuration of it shares.
func idKey(k Key, cfg vm.Config) string {
	return fmt.Sprintf("%s|mw%d|ms%d", k, cfg.MemWords, cfg.MaxSteps)
}

// runKey encodes the configuration fields that determine a run's result.
func runKey(k Key, cfg vm.Config) string {
	s := idKey(k, cfg) + "|" + cfg.Cache.Key()
	if cfg.ICache != nil {
		s += "|i:" + cfg.ICache.Key()
	}
	return s
}

// injected reports whether cfg carries fault-injector state, which a
// memoized result would silently skip.
func injected(cfg vm.Config) bool {
	return cfg.Cache.Injector != nil || (cfg.ICache != nil && cfg.ICache.Injector != nil)
}

// replayable reports whether replaying cfg's identity's trace yields
// cfg's statistics: no ICache refetch interleaving, no fault injection
// perturbing timing, no observer of the references, and no ECC (it has
// no replay model). MIN qualifies, although only replay can run it.
func replayable(cfg vm.Config) bool {
	return !injected(cfg) && cfg.TraceSink == nil && cfg.ICache == nil && cfg.Cache.ECC == cache.ECCOff
}

// lockRun returns the run entry for key, created on first request, with
// its mutex held and its store file shielded from GC. Release both with
// unlockRun.
func (c *Cache) lockRun(key string) (e *runEntry, path string) {
	if c.disk != nil {
		path = c.disk.runPath(key)
		c.protectPath(path)
	}
	c.mu.Lock()
	e = c.runs[key]
	if e == nil {
		e = &runEntry{}
		c.runs[key] = e
	}
	c.mu.Unlock()
	e.mu.Lock()
	return e, path
}

func (c *Cache) unlockRun(e *runEntry, path string) {
	e.mu.Unlock()
	c.unprotectPath(path)
}

// runKnown reports whether a run entry for key exists in memory (filled
// or in flight) or in the persistent store. Used by RunBatch to split
// hits from misses without creating entries it may never fill; a store
// file evicted or corrupt by the time run reads it costs one execution.
func (c *Cache) runKnown(key string) bool {
	c.mu.Lock()
	known := c.runs[key] != nil
	c.mu.Unlock()
	if known || c.disk == nil {
		return known
	}
	_, err := os.Stat(c.disk.runPath(key))
	return err == nil
}

// held returns the trace held for an execution identity, or nil. A
// non-nil t is held first, unless a concurrent traced run already holds
// one (the two are identical).
func (c *Cache) held(id string, t *heldTrace) *heldTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h := c.traces[id]; h != nil || t == nil {
		return h
	}
	c.traces[id] = t
	return t
}

// RunEncoded answers art under cfg with the encoded reference trace of
// cfg's execution identity. It seeds the identity's trace up front: when
// none is held it executes cfg with the encoder attached, and from then
// on RunBatch and MeasureBatch replay the trace instead of running the
// VM. When a trace is held it answers like RunBatch. A configuration
// replay cannot model is an error.
func (c *Cache) RunEncoded(art *Artifact, cfg vm.Config) (*vm.Result, *replay.Encoded, error) {
	cfg = cfg.Normalized()
	if !replayable(cfg) {
		return nil, nil, fmt.Errorf("artifact: RunEncoded: configuration %s cannot seed a trace", cfg.Cache.Key())
	}
	if t := c.held(idKey(art.Key, cfg), nil); t != nil {
		res, err := c.RunBatch(art, []vm.Config{cfg})
		if err != nil {
			return nil, nil, err
		}
		return res[0], t.enc, nil
	}
	res, t, err := c.run(art, cfg, true, ClassBypass, nil)
	if err != nil {
		return nil, nil, err
	}
	return res, t.enc, nil
}

// run is the one memoized VM path behind RunBatch, RunEncoded and
// MeasureBatch; cfg is normalized. An untraced run answers from the
// memo, then from the persistent store, before it executes. A traced run
// always executes (callers ask for one only when its identity holds no
// trace), memoizes its result like any other, and holds the trace it
// encodes for its identity.
func (c *Cache) run(art *Artifact, cfg vm.Config, traced bool, cls ReuseClass, sess *Session) (*vm.Result, *heldTrace, error) {
	if injected(cfg) || cfg.TraceSink != nil {
		// Injector state and TraceSink observation are side effects a
		// memoized result would silently skip: always execute.
		res, err := vm.Run(art.Prog, cfg)
		return res, nil, err
	}
	key := runKey(art.Key, cfg)
	e, path := c.lockRun(key)
	defer c.unlockRun(e, path)
	if e.err != nil {
		c.count(func(s *Stats) { s.RunHits++ })
		return nil, nil, e.err
	}
	if e.res != nil && !traced {
		c.count(func(s *Stats) { s.RunHits++ })
		c.installRunLocked(e, key, e.res, cls)
		sess.note(path)
		return e.res, nil, nil
	}
	if c.disk != nil && !traced {
		res, storedCls, err := c.diskReadRun(key)
		if err != nil {
			e.err = err
			return nil, nil, err
		}
		if res != nil {
			c.count(func(s *Stats) { s.DiskRunHits++ })
			e.res, e.class = res, storedCls
			c.installRunLocked(e, key, res, cls)
			sess.note(path)
			return res, nil, nil
		}
	}
	c.count(func(s *Stats) { s.RunMisses++ })
	var enc *replay.Encoder
	if traced {
		enc = replay.NewEncoder()
		cfg.TraceSink = enc
	}
	res, err := vm.Run(art.Prog, cfg)
	if err != nil {
		// A cancellation (deadline, shutdown) says nothing about the
		// configuration — where the run was when Done fired is wall-clock
		// nondeterminism. Never memoize it; the next identical request
		// must execute.
		var ce *vm.CancelError
		if !errors.As(err, &ce) {
			e.err = err
		}
		return nil, nil, err
	}
	res = c.installRunLocked(e, key, res, cls)
	sess.note(path)
	if !traced {
		return res, nil, nil
	}
	return res, c.held(idKey(art.Key, cfg), &heldTrace{enc: enc.Finish(), res: res}), nil
}

// installRunLocked memoizes res on e unless e already holds a result (an
// earlier filler's, bit-identical), raises e's reuse class to cls, and
// persists the entry when either changed. It is the one writer of run
// entries to the persistent store: a failed write degrades to memory-only,
// counted and warned, never returned. It returns e's result. Caller holds
// e.mu.
func (c *Cache) installRunLocked(e *runEntry, key string, res *vm.Result, cls ReuseClass) *vm.Result {
	changed := e.res == nil || cls > e.class
	if e.res == nil {
		e.res = res
	}
	e.class = maxClass(e.class, cls)
	if changed && c.disk != nil {
		if err := c.diskWriteRun(key, e.res, e.class); err != nil {
			c.count(func(s *Stats) { s.WriteErrs++ })
			c.warnf("artifact: persist run: %v", err)
		}
	}
	return e.res
}

// installReplayed memoizes cfg's result as derived from t: t's result
// with the cache statistics replayed for cfg, bit-identical to executing
// cfg (internal/replay's differential suite pins this).
func (c *Cache) installReplayed(art *Artifact, cfg vm.Config, t *heldTrace, st cache.Stats, cls ReuseClass, sess *Session) *vm.Result {
	r := *t.res
	r.CacheStats = st
	key := runKey(art.Key, cfg)
	e, path := c.lockRun(key)
	defer c.unlockRun(e, path)
	sess.note(path)
	return c.installRunLocked(e, key, &r, cls)
}

// cacheConfigs returns the cache configurations of cfgs at idxs.
func cacheConfigs(cfgs []vm.Config, idxs []int) []cache.Config {
	out := make([]cache.Config, len(idxs))
	for k, j := range idxs {
		out[k] = cfgs[j].Cache
	}
	return out
}

// RunBatch answers len(cfgs) simulation requests for one artifact,
// executing the VM as few times as possible. Results in the memo, then
// in the persistent store, are returned directly. The misses of an
// execution identity that holds a trace are all replayed from it in one
// replay.ReplayBatch call, bit-identical to direct execution and
// memoized/persisted exactly as if they had executed. An identity that
// holds no trace executes its first miss traced, holding the trace, and
// replays the rest; a lone miss with no trace to replay executes
// untraced. Configurations replay cannot model (fault injection, ICache,
// ECC, MIN, observation hooks) execute on their own. The first error
// aborts the batch.
func (c *Cache) RunBatch(art *Artifact, cfgs []vm.Config) ([]*vm.Result, error) {
	return c.runBatch(art, cfgs, ClassBypass, nil)
}

func (c *Cache) runBatch(art *Artifact, cfgs []vm.Config, cls ReuseClass, sess *Session) ([]*vm.Result, error) {
	results := make([]*vm.Result, len(cfgs))
	norm := make([]vm.Config, len(cfgs))
	firstByKey := make(map[string]int)
	var dups [][2]int                // {index, index of its identical earlier config}
	misses := make(map[string][]int) // execution identity -> unknown run keys' indices
	var order []string
	for i := range cfgs {
		norm[i] = cfgs[i].Normalized()
		if replayable(norm[i]) && norm[i].Cache.Policy != cache.MIN {
			rk := runKey(art.Key, norm[i])
			if j, ok := firstByKey[rk]; ok {
				dups = append(dups, [2]int{i, j})
				continue
			}
			firstByKey[rk] = i
			if !c.runKnown(rk) {
				id := idKey(art.Key, norm[i])
				if misses[id] == nil {
					order = append(order, id)
				}
				misses[id] = append(misses[id], i)
				continue
			}
		}
		r, _, err := c.run(art, norm[i], false, cls, sess)
		if err != nil {
			return nil, err
		}
		results[i] = r
	}
	for _, id := range order {
		idxs := misses[id]
		t := c.held(id, nil)
		if t == nil {
			// With siblings to replay, the first miss runs traced;
			// alone, it runs untraced.
			var err error
			results[idxs[0]], t, err = c.run(art, norm[idxs[0]], len(idxs) > 1, cls, sess)
			if err != nil {
				return nil, err
			}
			if idxs = idxs[1:]; len(idxs) == 0 {
				continue
			}
		}
		sts, err := replay.ReplayBatch(t.enc, cacheConfigs(norm, idxs))
		if err != nil {
			return nil, err
		}
		n := int64(len(idxs))
		c.count(func(s *Stats) { s.RunMisses += n; s.BatchReplays += n })
		for k, j := range idxs {
			results[j] = c.installReplayed(art, norm[j], t, sts[k], cls, sess)
		}
	}
	for _, d := range dups {
		results[d[0]] = results[d[1]]
	}
	return results, nil
}

// MeasureBatch measures art under each configuration by replaying the
// held trace of its execution identity through replay.MeasureBatch (one
// decoding pass per identity), which adds the occupancy metrics a VM run
// does not collect. MIN is allowed. An identity that holds no trace runs
// one traced lead first, under its first configuration (with LRU for
// MIN, which only replay runs). Every non-MIN result is installed as an
// ordinary run entry, the held trace's result with the measured
// statistics, so a later RunBatch for that configuration is a hit. A
// configuration replay cannot model (a fault injector, an instruction
// cache, ECC or a trace sink) is an error.
func (c *Cache) MeasureBatch(art *Artifact, cfgs []vm.Config) ([]replay.TraceStats, error) {
	norm := make([]vm.Config, len(cfgs))
	byID := make(map[string][]int) // execution identity -> indices
	var order []string
	for i := range cfgs {
		norm[i] = cfgs[i].Normalized()
		if !replayable(norm[i]) {
			return nil, fmt.Errorf("artifact: MeasureBatch: configuration %d has a fault injector, an instruction cache, ECC or a trace sink", i)
		}
		id := idKey(art.Key, norm[i])
		if byID[id] == nil {
			order = append(order, id)
		}
		byID[id] = append(byID[id], i)
	}
	out := make([]replay.TraceStats, len(cfgs))
	for _, id := range order {
		idxs := byID[id]
		t := c.held(id, nil)
		if t == nil {
			lead := norm[idxs[0]]
			if lead.Cache.Policy == cache.MIN {
				lead.Cache.Policy = cache.LRU
			}
			var err error
			if _, t, err = c.run(art, lead, true, ClassBypass, nil); err != nil {
				return nil, err
			}
		}
		tss, err := replay.MeasureBatch(t.enc, cacheConfigs(norm, idxs))
		if err != nil {
			return nil, err
		}
		n := int64(len(idxs))
		c.count(func(s *Stats) { s.Measures += n })
		for k, j := range idxs {
			out[j] = tss[k]
			if norm[j].Cache.Policy != cache.MIN {
				c.installReplayed(art, norm[j], t, tss[k].Stats, ClassBypass, nil)
			}
		}
	}
	return out, nil
}
