package experiments

import (
	"math"
	"testing"

	"geoloc/internal/world"
)

// TestChaosDegradationMonotone is the acceptance gate of the chaos sweep:
// along the intensity ordering of ChaosProfiles, matrix coverage must not
// increase, every profile must complete the pipeline, and the realistic
// profile (≈1–5% loss) must keep the CBG median error within 2× of the
// fault-free run.
func TestChaosDegradationMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("full fault sweep")
	}
	rows := ChaosSweep(world.TinyConfig(), nil)
	if len(rows) < 3 {
		t.Fatalf("sweep produced %d rows", len(rows))
	}

	if rows[0].Coverage < 0.999 {
		t.Errorf("fault-free coverage = %.4f, want ~1", rows[0].Coverage)
	}
	// Fault-free failures are the simulator's naturally-unresponsive
	// destinations; the client must not retry or quarantine them.
	if rows[0].Retries != 0 || rows[0].Quarantines != 0 {
		t.Errorf("fault-free run has retries=%d quarantines=%d, want 0",
			rows[0].Retries, rows[0].Quarantines)
	}
	for i := 1; i < len(rows); i++ {
		// Allow a hair of slack: coverage is a ratio of two large counts
		// and adjacent profiles can tie.
		if rows[i].Coverage > rows[i-1].Coverage+1e-9 {
			t.Errorf("coverage not monotone: %s %.4f > %s %.4f",
				rows[i].Profile.Name, rows[i].Coverage,
				rows[i-1].Profile.Name, rows[i-1].Coverage)
		}
	}
	for _, r := range rows {
		if r.Located == 0 {
			t.Errorf("%s: CBG located no targets", r.Profile.Name)
		}
	}

	base := rows[0].MedianErrKm
	realistic := rows[2]
	if math.IsNaN(realistic.MedianErrKm) || realistic.MedianErrKm > 2*base {
		t.Errorf("realistic median error %.1f km exceeds 2x fault-free %.1f km",
			realistic.MedianErrKm, base)
	}
	if realistic.Retries == 0 {
		t.Errorf("realistic profile recorded no retries; client not engaged?")
	}
	if realistic.CampaignSec <= rows[0].CampaignSec {
		t.Errorf("realistic campaign (%.0fs) not slower than fault-free (%.0fs)",
			realistic.CampaignSec, rows[0].CampaignSec)
	}
}

// TestChaosReport checks the experiment renders a complete table.
func TestChaosReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full fault sweep")
	}
	rep := Chaos(nil)
	if len(rep.Rows) != len(ChaosProfiles()) {
		t.Fatalf("report has %d rows, want %d", len(rep.Rows), len(ChaosProfiles()))
	}
	for _, row := range rep.Rows {
		if len(row) != len(rep.Header) {
			t.Errorf("row %v has %d cells, header has %d", row, len(row), len(rep.Header))
		}
	}
}
