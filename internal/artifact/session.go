package artifact

import (
	"sync"

	"repro/internal/core"
	"repro/internal/vm"
)

// ReuseClass tags a persistent store entry with its predicted reuse — the
// paper's own liveness framing applied to the artifact store. An entry
// inserted for a one-shot request has no known future use: it is
// bypass-eligible, the first thing the GC reclaims. An entry inserted by
// a campaign is known to be re-requested (grids revisit the same
// compilations across geometries, and resumed campaigns re-read them):
// it is live, evicted only when every bypass-class entry is already gone.
type ReuseClass uint8

const (
	// ClassBypass marks a one-shot entry with no predicted reuse;
	// bypass-eligible entries are evicted first.
	ClassBypass ReuseClass = iota
	// ClassLive marks an entry with predicted reuse (campaign traffic);
	// live entries are evicted only after every bypass-class entry.
	ClassLive
)

// String renders the class as persisted in store entries ("" is decoded
// as bypass, so pre-class stores read back unchanged).
func (c ReuseClass) String() string {
	if c == ClassLive {
		return "live"
	}
	return "bypass"
}

// classLabel is the on-disk spelling: bypass is the zero value and is
// omitted from the JSON entirely (omitempty), keeping old entries valid.
func classLabel(c ReuseClass) string {
	if c == ClassLive {
		return "live"
	}
	return ""
}

func parseClass(s string) ReuseClass {
	if s == "live" {
		return ClassLive
	}
	return ClassBypass
}

func maxClass(a, b ReuseClass) ReuseClass {
	if b > a {
		return b
	}
	return a
}

// Session is a classed view of the cache: every Build/Run through it
// inserts (or promotes) entries with the session's reuse class, and a
// pinning session additionally shields every store file it touches from
// GC eviction until Close. The serving daemon runs each campaign inside
// a pinning live-class session, so a GC cycle racing a campaign can
// never evict the artifacts the campaign is actively replaying; Close
// demotes them from pinned to plain live-class entries.
//
// A Session is safe for concurrent use; Close may be called once.
type Session struct {
	c     *Cache
	class ReuseClass
	pin   bool

	mu     sync.Mutex
	closed bool
	paths  map[string]bool
}

// NewSession returns a view of the cache inserting entries with the
// given reuse class. With pin set, store files touched through the
// session are protected from GC until Close.
func (c *Cache) NewSession(class ReuseClass, pin bool) *Session {
	return &Session{c: c, class: class, pin: pin, paths: make(map[string]bool)}
}

// note registers a store path as touched by the session, pinning it for
// the session's lifetime. No-op for memory-only caches (empty path),
// non-pinning sessions, and closed sessions.
func (s *Session) note(path string) {
	if s == nil || !s.pin || path == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.paths[path] {
		return
	}
	s.paths[path] = true
	s.c.protectPath(path)
}

// Close releases the session's pins. Entries keep their reuse class;
// only the eviction shield is dropped.
func (s *Session) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for p := range s.paths {
		s.c.unprotectPath(p)
	}
	s.paths = nil
}

// Build is Cache.Build with the session's class and pinning applied.
func (s *Session) Build(src string, cfg core.Config) (*Artifact, error) {
	art, _, err := s.c.buildShared(src, cfg, s.class, s)
	return art, err
}

// BuildShared is Cache.BuildShared with the session's class and pinning.
func (s *Session) BuildShared(src string, cfg core.Config) (*Artifact, bool, error) {
	return s.c.buildShared(src, cfg, s.class, s)
}

// BuildIR is Cache.BuildIR with the session's class and pinning.
func (s *Session) BuildIR(src string, cfg core.Config) (*Artifact, error) {
	return s.c.buildIR(src, cfg, s.class, s)
}

// Run is Cache.Run with the session's class and pinning.
func (s *Session) Run(art *Artifact, cfg vm.Config) (*vm.Result, error) {
	res, _, err := s.c.run(art, cfg, false, s.class, s)
	return res, err
}

// RunBatch is Cache.RunBatch with the session's class and pinning.
func (s *Session) RunBatch(art *Artifact, cfgs []vm.Config) ([]*vm.Result, error) {
	return s.c.runBatch(art, cfgs, s.class, s)
}
