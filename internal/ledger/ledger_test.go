package ledger

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileKeepsOldFileOnFailure: a write that fails partway leaves
// the previous artifact byte-identical and no temporary file behind; a
// write that succeeds replaces it.
func TestWriteFileKeepsOldFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	old := []byte("{\"schema\": \"old\"}\n")
	if err := os.WriteFile(path, old, 0o666); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("run failed")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "{\n\"schema\": \"new\",\n"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile = %v, want the write's error", err)
	}
	assertDir(t, dir, path, old)

	fresh := []byte("{\"schema\": \"new\"}\n")
	if err := WriteFile(path, func(w io.Writer) error { _, err := w.Write(fresh); return err }); err != nil {
		t.Fatal(err)
	}
	assertDir(t, dir, path, fresh)
}

// assertDir requires path to hold want and to be the directory's only file.
func assertDir(t *testing.T, dir, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("%s holds %q, want %q", path, got, want)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only %s", names, filepath.Base(path))
	}
}
