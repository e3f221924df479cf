package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"geoloc/internal/atlas"
	"geoloc/internal/cbg"
	"geoloc/internal/checkpoint"
)

// TestBuildTargetThenMatricesMeasuresOnce: BuildTargetMatrix seals the
// target matrix, so a later BuildMatrices measures only the representatives
// and the campaign's accounting equals one BuildMatrices.
func TestBuildTargetThenMatricesMeasuresOnce(t *testing.T) {
	for _, profile := range []string{"", "realistic"} {
		ref := tinyCampaign(profile)
		ref.BuildMatrices()

		c := tinyCampaign(profile)
		c.BuildTargetMatrix()
		c.BuildMatrices()
		if got, want := c.Platform.Stats().Pings, ref.Platform.Stats().Pings; got != want {
			t.Fatalf("%q: BuildTargetMatrix+BuildMatrices pinged %d times, BuildMatrices %d", profile, got, want)
		}
		if profile != "" && c.Client.Stats() != ref.Client.Stats() {
			t.Fatalf("%q: client stats differ:\n%+v\n%+v", profile, c.Client.Stats(), ref.Client.Stats())
		}
		rt, rr := digests(ref)
		ct, cr := digests(c)
		if rt != ct || rr != cr {
			t.Fatalf("%q: matrices differ from one BuildMatrices", profile)
		}
	}
}

// TestResumeRejectsOtherTallyLayout: a raw campaign's config hash says
// nothing about the row layout, so a journal written under another layout
// passes the header check. Its rows must still be refused rather than
// resumed: a 20-field tally (the one that carried credits, budget and shed
// counts) would shift its counts into the wrong fields, and a nonzero
// flags byte (an older build's stalled row) would resume a row whose tail
// was never measured as if it were complete.
func TestResumeRejectsOtherTallyLayout(t *testing.T) {
	c := tinyCampaign("")
	nf := (&atlas.BatchStats{}).NumFields()
	for _, tc := range []struct {
		name   string
		flags  byte
		fields int
	}{
		{"20-field tally", 0, 20},
		{"stalled flag", 1, nf},
	} {
		journal := filepath.Join(t.TempDir(), "c.ckpt")
		j, err := checkpoint.Create(journal, checkpoint.Header{
			ConfigHash: c.ConfigHash(),
			Seed:       c.W.Cfg.Seed,
			Profile:    c.profileName(),
		})
		if err != nil {
			t.Fatal(err)
		}
		row := []byte{rowMatrixTargets, tc.flags}
		row = binary.LittleEndian.AppendUint32(row, 0)
		row = binary.LittleEndian.AppendUint32(row, uint32(len(c.Targets)))
		for range c.Targets {
			row = binary.LittleEndian.AppendUint32(row, math.Float32bits(cbg.Unresponsive))
		}
		row = binary.LittleEndian.AppendUint16(row, uint16(tc.fields))
		for i := 0; i < tc.fields; i++ {
			row = binary.LittleEndian.AppendUint64(row, uint64(i))
		}
		if err := j.Append(checkpoint.KindRow, row); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		_, err = tinyCampaign("").Run(context.Background(), RunConfig{JournalPath: journal, Resume: true})
		if !errors.Is(err, checkpoint.ErrMismatch) {
			t.Fatalf("%s: row resumed with err %v, want ErrMismatch", tc.name, err)
		}
	}
}
