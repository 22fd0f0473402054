// Persistent layer of the content-addressed cache.
//
// Layout under the store root:
//
//	builds/<key>.json  {schema, key, asm, static}   — one compiled program,
//	                   saved in the textual UM assembly format (the same
//	                   round-trip the public SaveAssembly/RunAssembly API
//	                   exercises and FuzzAsmRoundTrip pins down)
//	runs/<sha>.json    {schema, key, result}        — one simulation result,
//	                   trace-stripped; <sha> is the SHA-256 of the full run
//	                   key, which is stored inside for re-derivation
//
// Writes are crash-safe: content goes to a ".partial" sidecar first and is
// renamed over the final name (the unisweep artifact pattern), so a killed
// process never leaves a half-written entry under a valid name.
//
// Reads are corruption-tolerant but permission-strict:
//
//   - a missing file is a miss;
//   - a file that does not parse, fails schema/key re-derivation, or does
//     not assemble is corruption: it is counted, reported through the warn
//     sink, deleted best-effort, and salvaged by recomputing — exactly the
//     sweep.ReadRecords salvage convention;
//   - a permission error is NOT a miss: it means the store is
//     misconfigured, and masking it by silently recomputing every request
//     would hide the misconfiguration forever. It fails loudly.
package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Schemas of the two persistent entry kinds.
const (
	buildSchema = "unicache-artifact-build/v1"
	runSchema   = "unicache-artifact-run/v1"
)

type disk struct {
	dir string
}

// readFile is a test seam: permission errors cannot be provoked with real
// files when the test runs as root, so the loud-failure path is exercised
// by swapping this out.
var readFile = os.ReadFile

func openDisk(dir string) (*disk, error) {
	for _, sub := range []string{"builds", "runs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o777); err != nil {
			return nil, fmt.Errorf("artifact: store: %w", err)
		}
	}
	return &disk{dir: dir}, nil
}

// diskBuild is the on-disk form of a compiled artifact. The IR is not
// persisted — BuildIR recompiles on demand — so restarts stay cheap and
// the format stays a stable, human-inspectable assembly listing.
type diskBuild struct {
	Schema string           `json:"schema"`
	Key    string           `json:"key"`
	Class  string           `json:"class,omitempty"` // reuse class; absent = bypass
	Asm    string           `json:"asm"`
	Static core.StaticStats `json:"static"`
}

// diskRun is the on-disk form of a memoized simulation result. Key is the
// full run-key string; the filename is only its hash.
type diskRun struct {
	Schema string    `json:"schema"`
	Key    string    `json:"key"`
	Class  string    `json:"class,omitempty"` // reuse class; absent = bypass
	Result vm.Result `json:"result"`
}

func (d *disk) buildPath(k Key) string {
	return filepath.Join(d.dir, "builds", hex.EncodeToString(k[:])+".json")
}

func (d *disk) runPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, "runs", hex.EncodeToString(sum[:])+".json")
}

// readEntry loads path into v. Returns (false, nil) on a miss, (true, nil)
// on success; corruption is normalized to (false, nil) after salvage
// bookkeeping; only environmental errors (permissions) are returned.
// getKey must fold the schema check into the key it returns, so one
// re-derivation comparison covers both.
func (c *Cache) readEntry(path string, v any, wantKey string, getKey func() string) (bool, error) {
	raw, err := readFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return false, nil
	case errors.Is(err, fs.ErrPermission):
		return false, fmt.Errorf("artifact: store unreadable: %w", err)
	case err != nil:
		// Other I/O damage (EIO, truncated device): treat as corruption —
		// availability over purity — but never mask permission problems.
		c.salvage(path, err)
		return false, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		c.salvage(path, err)
		return false, nil
	}
	if got := getKey(); got != wantKey {
		c.salvage(path, fmt.Errorf("key %.16s… does not re-derive (want %.16s…)", got, wantKey))
		return false, nil
	}
	return true, nil
}

// salvage records one corrupt store file and removes it so the recomputed
// entry can be persisted cleanly.
func (c *Cache) salvage(path string, reason error) {
	c.count(func(s *Stats) { s.Corrupt++ })
	c.warnf("artifact: corrupt store entry %s: %v (recomputing)", filepath.Base(path), reason)
	_ = os.Remove(path)
}

func (c *Cache) diskReadBuild(k Key) (*Artifact, ReuseClass, error) {
	path := c.disk.buildPath(k)
	var db diskBuild
	ok, err := c.readEntry(path, &db, hex.EncodeToString(k[:]), func() string {
		if db.Schema != buildSchema {
			return "bad-schema:" + db.Schema
		}
		return db.Key
	})
	if !ok || err != nil {
		return nil, ClassBypass, err
	}
	prog, aerr := isa.Assemble(db.Asm)
	if aerr != nil {
		c.salvage(path, aerr)
		return nil, ClassBypass, nil
	}
	if verr := prog.Validate(); verr != nil {
		c.salvage(path, verr)
		return nil, ClassBypass, nil
	}
	touch(path)
	return &Artifact{Key: k, Prog: prog, Static: db.Static}, parseClass(db.Class), nil
}

func (c *Cache) diskWriteBuild(k Key, prog *isa.Program, static core.StaticStats, cls ReuseClass) error {
	b, err := json.Marshal(diskBuild{
		Schema: buildSchema,
		Key:    hex.EncodeToString(k[:]),
		Class:  classLabel(cls),
		Asm:    prog.Save(),
		Static: static,
	})
	if err != nil {
		return err
	}
	return atomicWrite(c.disk.buildPath(k), b)
}

func (c *Cache) diskReadRun(key string) (*vm.Result, ReuseClass, error) {
	path := c.disk.runPath(key)
	var dr diskRun
	ok, err := c.readEntry(path, &dr, key, func() string {
		if dr.Schema != runSchema {
			return "bad-schema:" + dr.Schema
		}
		return dr.Key
	})
	if !ok || err != nil {
		return nil, ClassBypass, err
	}
	touch(path)
	return &dr.Result, parseClass(dr.Class), nil
}

func (c *Cache) diskWriteRun(key string, res *vm.Result, cls ReuseClass) error {
	b, err := json.Marshal(diskRun{Schema: runSchema, Key: key, Class: classLabel(cls), Result: *res})
	if err != nil {
		return err
	}
	return atomicWrite(c.disk.runPath(key), b)
}

// touch refreshes a store file's mtime on a read hit, making mtime a
// last-access clock for the GC's within-class recency ordering. Best
// effort: a failed touch only makes the entry look colder.
func touch(path string) {
	now := time.Now() //unilint:ok wallclock — GC recency metadata only, never in computed results
	_ = os.Chtimes(path, now, now)
}

// atomicWrite lands data under path via a same-directory ".partial"
// sidecar and rename, so concurrent readers and crash recovery never see
// a torn entry.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".partial"
	if err := os.WriteFile(tmp, data, 0o666); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
