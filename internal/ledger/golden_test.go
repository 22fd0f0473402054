package ledger_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/ledger"
	"repro/internal/serve/loadtest"
	"repro/internal/sweep"
)

// TestCommittedArtifactsRoundTrip: every committed JSON artifact passes
// its strict verifier and re-encodes through its writer to the same
// bytes, so the writers still emit exactly the checked-in layout.
func TestCommittedArtifactsRoundTrip(t *testing.T) {
	cases := []struct {
		file     string
		reencode func(r io.Reader, w io.Writer) error
	}{
		{"BENCH_sweep.json", func(r io.Reader, w io.Writer) error {
			a, err := sweep.Verify(r)
			if err != nil {
				return err
			}
			return sweep.WriteJSON(w, a.Grid, a.Records)
		}},
		{"BENCH_exact.json", func(r io.Reader, w io.Writer) error {
			a, err := experiments.VerifyScaling(r)
			if err != nil {
				return err
			}
			return experiments.WriteScalingJSON(w, a.ScalingSpec, a.Records)
		}},
		{"BENCH_serve.json", func(r io.Reader, w io.Writer) error {
			rep, err := loadtest.VerifyBench(r)
			if err != nil {
				return err
			}
			return ledger.WriteIndent(w, rep)
		}},
		{"BENCH_campaign.json", func(r io.Reader, w io.Writer) error {
			b, err := campaign.VerifyBench(r)
			if err != nil {
				return err
			}
			return ledger.WriteIndent(w, b)
		}},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", c.file))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := c.reencode(bytes.NewReader(want), &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("re-encoding differs from the committed file (%d vs %d bytes)", got.Len(), len(want))
			}
		})
	}
}
