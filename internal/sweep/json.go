package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/ledger"
)

// Schema identifies the sweep artifact format. Bump on any change to the
// Record encoding so trajectory tooling can tell generations apart.
const Schema = "unicache-sweep/v1"

// WriteJSON writes the canonical sweep artifact: schema header, the grid,
// the unit count, then one record per line in canonical order. The
// line-per-record layout is what makes truncated files recoverable —
// ReadRecords salvages every complete line — and the encoding contains no
// timestamps, map iterations or float formatting ambiguity, so two sweeps
// of the same grid produce byte-identical files at any worker count.
func WriteJSON(w io.Writer, g Grid, recs []Record) error { return writeJSON(w, g, recs) }

// WriteJSONLines is WriteJSON over already-marshaled record lines. It is
// the single source of truth for the artifact layout: the remote campaign
// client assembles its artifact from the raw lines the daemon streamed,
// through this writer, so remote and local artifacts agree byte-for-byte
// by construction rather than by re-marshaling records.
func WriteJSONLines(w io.Writer, g Grid, lines []json.RawMessage) error {
	return writeJSON(w, g, lines)
}

func writeJSON[T any](w io.Writer, g Grid, items []T) error {
	return ledger.WriteLines(w, Schema,
		[]ledger.Field{{Name: "grid", Value: g}, {Name: "units", Value: len(items)}}, "records", items)
}

// MarshalLine encodes the record as the single JSON line WriteJSON emits
// (without the separator) — the unit of salvage ReadRecords understands.
// Progress streams use it to mirror finished records to a sidecar file.
func (r Record) MarshalLine() ([]byte, error) {
	return json.Marshal(r)
}

// ReadRecords leniently salvages records from a sweep artifact that may be
// truncated or half-written: every line holding one complete record is
// kept (keyed for resume), and headers or a cut-off final line are
// skipped. A line can be valid JSON yet still be damaged — a record cut
// mid-field parses but carries a key its remaining fields do not derive.
// Resuming such a record would silently trust half a measurement, so every
// salvaged record's key is re-derived and mismatches are dropped; the
// returned count tells the caller how many, for a visible warning. A file
// with no salvageable records yields an empty map, which simply resumes
// nothing.
func ReadRecords(r io.Reader) (map[string]Record, int, error) {
	out := make(map[string]Record)
	dropped := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSuffix(strings.TrimSpace(sc.Text()), ",")
		if !strings.HasPrefix(line, `{"key":`) {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			continue // truncated tail
		}
		want := rec
		want.SetKey()
		if rec.Key == "" || rec.Key != want.Key {
			dropped++
			continue
		}
		out[rec.Key] = rec
	}
	return out, dropped, sc.Err()
}

// Artifact is the decoded form of a sweep artifact.
type Artifact struct {
	Schema  string   `json:"schema"`
	Grid    Grid     `json:"grid"`
	Units   int      `json:"units"`
	Records []Record `json:"records"`
}

// Verify strictly reads a complete sweep artifact (ledger.Verify).
func Verify(r io.Reader) (*Artifact, error) { return ledger.Verify[Artifact](r, Schema) }

// Check requires the unit count to match the records, and the records to
// pass CheckKeys.
func (a *Artifact) Check() error {
	if a.Units != len(a.Records) {
		return fmt.Errorf("sweep: header says %d units, found %d records", a.Units, len(a.Records))
	}
	return CheckKeys(a.Records)
}

// CheckKeys requires every record's key to re-derive from its fields and
// no key to repeat. Every artifact that carries Records checks them so.
func CheckKeys(recs []Record) error {
	seen := make(map[string]bool, len(recs))
	for i, rec := range recs {
		want := rec
		want.SetKey()
		if rec.Key != want.Key {
			return fmt.Errorf("record %d: key %q does not match fields (want %q)", i, rec.Key, want.Key)
		}
		if seen[rec.Key] {
			return fmt.Errorf("record %d: duplicate key %q", i, rec.Key)
		}
		seen[rec.Key] = true
	}
	return nil
}
