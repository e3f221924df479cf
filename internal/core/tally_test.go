package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"path/filepath"
	"testing"

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
// nothing about the row tally's layout, so a journal written under another
// layout (here the 20-field tally that carried credits, budget and shed
// counts) passes the header check. Its rows must still be refused rather
// than resumed with their counts shifted into the wrong fields.
func TestResumeRejectsOtherTallyLayout(t *testing.T) {
	c := tinyCampaign("")
	journal := filepath.Join(t.TempDir(), "c.ckpt")
	j, err := checkpoint.Create(journal, checkpoint.Header{
		ConfigHash: c.ConfigHash(),
		Seed:       c.W.Cfg.Seed,
		Profile:    c.profileName(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const oldFields = 20
	row := []byte{rowMatrixTargets, 0}
	row = binary.LittleEndian.AppendUint32(row, 0)
	row = binary.LittleEndian.AppendUint32(row, uint32(len(c.Targets)))
	for range c.Targets {
		row = binary.LittleEndian.AppendUint32(row, math.Float32bits(cbg.Unresponsive))
	}
	row = binary.LittleEndian.AppendUint16(row, oldFields)
	for i := 0; i < oldFields; i++ {
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
		t.Fatalf("20-field row resumed with err %v, want ErrMismatch", err)
	}
}
