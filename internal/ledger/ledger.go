// Package ledger owns the JSON artifact format: how an artifact lands on
// disk, its two layouts, and the strict reader. The artifact packages
// (sweep, E12 scaling, lint, the serve and campaign bench reports) keep
// only their fields and semantic checks.
package ledger

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// WriteFile writes an artifact atomically: write streams into path+".tmp",
// which replaces path only once the write, a sync and the close succeed,
// so a failed run leaves the old file untouched and no temporary behind.
// A path of "-" writes to stdout.
func WriteFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Field is one header field of a line-per-item artifact.
type Field struct {
	Name  string
	Value any
}

// WriteLines writes the line-per-item layout (sweep, E12 and lint
// artifacts): "{", then the schema and each header field on a line of its
// own, then the list with one JSON-encoded item per line, then "]}". An
// item line is the unit sweep.ReadRecords salvages from a truncated file.
// json.Marshal compacts a json.RawMessage item, so a compact line is
// copied unchanged.
func WriteLines[T any](w io.Writer, schema string, header []Field, list string, items []T) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\n\"schema\": %q,\n", schema)
	for _, f := range header {
		v, err := json.Marshal(f.Value)
		if err != nil {
			return fmt.Errorf("header field %s: %w", f.Name, err)
		}
		fmt.Fprintf(bw, "%q: %s,\n", f.Name, v)
	}
	fmt.Fprintf(bw, "%q: [\n", list)
	for i, it := range items {
		b, err := json.Marshal(it)
		if err != nil {
			return err
		}
		if i < len(items)-1 {
			b = append(b, ',')
		}
		bw.Write(append(b, '\n'))
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// WriteIndent writes the single-record layout of the bench reports:
// two-space-indented JSON and a final newline.
func WriteIndent(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// SchemaOf returns the "schema" field of an artifact. It fails unless
// data holds exactly one JSON document.
func SchemaOf(data []byte) (string, error) {
	var head struct {
		Schema string `json:"schema"`
	}
	err := json.Unmarshal(data, &head)
	return head.Schema, err
}

// Verify strictly reads one artifact into a new T (Decode) and runs T's
// own semantic checks.
func Verify[T any, PT interface {
	*T
	Check() error
}](r io.Reader, schema string) (*T, error) {
	v := PT(new(T))
	if err := Decode(r, schema, v); err != nil {
		return nil, err
	}
	if err := v.Check(); err != nil {
		return nil, err
	}
	return (*T)(v), nil
}

// Decode strictly reads one artifact into v: r must hold exactly one JSON
// document, with the given schema and no field that v lacks.
func Decode(r io.Reader, schema string, v any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	got, err := SchemaOf(data)
	if err != nil {
		return err
	}
	if got != schema {
		return fmt.Errorf("schema %q, want %q", got, schema)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
