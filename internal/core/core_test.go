package core

import (
	"math"
	"sort"
	"testing"

	"geoloc/internal/geo"
	"geoloc/internal/stats"
	"geoloc/internal/world"
)

// campaign is shared by the package tests; matrices are built once.
var campaign = func() *Campaign {
	c := NewCampaign(world.TinyConfig())
	c.BuildMatrices()
	return c
}()

func TestSanitizationSplitsHosts(t *testing.T) {
	cfg := world.TinyConfig()
	wantTargets := 0
	for _, n := range cfg.AnchorsPerContinent {
		wantTargets += n
	}
	if len(campaign.SanitizedAnchors) != wantTargets {
		t.Errorf("targets = %d, want %d", len(campaign.SanitizedAnchors), wantTargets)
	}
	if len(campaign.RemovedAnchors) != cfg.CorruptAnchors {
		t.Errorf("removed anchors = %d, want %d", len(campaign.RemovedAnchors), cfg.CorruptAnchors)
	}
	if len(campaign.RemovedProbes) != cfg.CorruptProbes {
		t.Errorf("removed probes = %d, want %d", len(campaign.RemovedProbes), cfg.CorruptProbes)
	}
}

func TestVPSetIsProbesPlusAnchors(t *testing.T) {
	want := len(campaign.SanitizedProbes) + len(campaign.SanitizedAnchors)
	if len(campaign.VPs) != want {
		t.Errorf("VPs = %d, want %d", len(campaign.VPs), want)
	}
	for i, row := range campaign.AnchorVPIndices() {
		if id := campaign.SanitizedAnchors[i]; campaign.VPs[row].ID != id {
			t.Fatalf("row %d holds host %d, want anchor %d", row, campaign.VPs[row].ID, id)
		}
	}
}

func TestMatrixDimensions(t *testing.T) {
	if len(campaign.TargetRTT.RTT) != len(campaign.VPs) {
		t.Fatalf("target matrix rows = %d", len(campaign.TargetRTT.RTT))
	}
	if len(campaign.TargetRTT.RTT[0]) != len(campaign.Targets) {
		t.Fatalf("target matrix cols = %d", len(campaign.TargetRTT.RTT[0]))
	}
	if len(campaign.RepRTT.RTT) != len(campaign.VPs) {
		t.Fatalf("rep matrix rows = %d", len(campaign.RepRTT.RTT))
	}
}

func TestSelfVPExcluded(t *testing.T) {
	// Targets are the sanitized anchors, so target ti is the VP at row
	// AnchorVPIndices()[ti].
	anchorRows := campaign.AnchorVPIndices()
	for ti, target := range campaign.Targets {
		vp := anchorRows[ti]
		if campaign.VPs[vp] != target {
			t.Fatalf("target %d is not the VP at row %d", target.ID, vp)
		}
		if r := campaign.TargetRTT.RTT[vp][ti]; !math.IsNaN(float64(r)) {
			t.Fatalf("target %d has self-measurement %.3f", target.ID, r)
		}
	}
}

func TestMatrixMostlyResponsive(t *testing.T) {
	total, responsive := 0, 0
	for vp := range campaign.TargetRTT.RTT {
		for ti := range campaign.TargetRTT.RTT[vp] {
			if campaign.VPs[vp].ID == campaign.Targets[ti].ID {
				continue
			}
			total++
			if !math.IsNaN(float64(campaign.TargetRTT.RTT[vp][ti])) {
				responsive++
			}
		}
	}
	if frac := float64(responsive) / float64(total); frac < 0.95 {
		t.Errorf("responsive fraction = %.3f, want > 0.95", frac)
	}
}

func TestMatrixDeterministicAcrossRuns(t *testing.T) {
	c2 := NewCampaign(world.TinyConfig())
	c2.BuildTargetMatrix()
	for vp := range campaign.TargetRTT.RTT {
		for ti := range campaign.TargetRTT.RTT[vp] {
			a := campaign.TargetRTT.RTT[vp][ti]
			b := c2.TargetRTT.RTT[vp][ti]
			if a != b && !(math.IsNaN(float64(a)) && math.IsNaN(float64(b))) {
				t.Fatalf("matrix differs at [%d][%d]: %v vs %v", vp, ti, a, b)
			}
		}
	}
}

func TestCBGOnCampaignBeatsRandomGuess(t *testing.T) {
	var errs []float64
	for ti := range campaign.Targets {
		est, ok := campaign.TargetRTT.LocateSubset(ti, nil, geo.TwoThirdsC)
		if !ok {
			continue
		}
		errs = append(errs, campaign.ErrorKm(ti, est))
	}
	if len(errs) < len(campaign.Targets)/2 {
		t.Fatalf("CBG located only %d/%d targets", len(errs), len(campaign.Targets))
	}
	med := stats.MustMedian(errs)
	// Even the tiny world should geolocate targets to well under 1000 km.
	if med > 1000 {
		t.Errorf("tiny-world CBG median error = %.0f km, want < 1000", med)
	}
}

func TestRepMatrixCorrelatesWithTargetMatrix(t *testing.T) {
	// Representatives share the target's /24, so a VP's RTT to the reps
	// should usually be close to its RTT to the target.
	var diffs []float64
	for vp := 0; vp < len(campaign.VPs); vp += 7 {
		for ti := range campaign.Targets {
			tr := float64(campaign.TargetRTT.RTT[vp][ti])
			rr := float64(campaign.RepRTT.RTT[vp][ti])
			if math.IsNaN(tr) || math.IsNaN(rr) {
				continue
			}
			diffs = append(diffs, math.Abs(tr-rr))
		}
	}
	if len(diffs) == 0 {
		t.Fatal("no comparable entries")
	}
	sort.Float64s(diffs)
	med := diffs[len(diffs)/2]
	// Per-pair persistent path noise makes rep and target RTTs differ by a
	// few ms even from the same vantage point; the signal must still be
	// strong enough for VP selection (well under the tens of ms that
	// separate near from far VPs).
	if med > 5.0 {
		t.Errorf("median |target-rep| RTT difference = %.2f ms, want < 5", med)
	}
}

// TestProbeVPIndices: the probes are the matrices' leading rows, in
// sanitized order, ahead of the anchors.
func TestProbeVPIndices(t *testing.T) {
	for i, id := range campaign.SanitizedProbes {
		if vp := campaign.VPs[i]; vp.ID != id || vp.Kind != world.Probe {
			t.Fatalf("row %d holds host %d (%v), want probe %d", i, vp.ID, vp.Kind, id)
		}
	}
}

func TestErrorKmZeroAtTruth(t *testing.T) {
	if e := campaign.ErrorKm(0, campaign.Targets[0].Loc); e != 0 {
		t.Errorf("error at truth = %v", e)
	}
}

func TestTargetContinentConsistent(t *testing.T) {
	for ti, target := range campaign.Targets {
		want := campaign.W.CityOf(target).Continent
		if campaign.TargetContinent(ti) != want {
			t.Fatalf("continent mismatch for target %d", ti)
		}
	}
}

func TestMedian3(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{2, 4}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{1, 2, 3}, 2},
		{[]float64{3, 2, 1}, 2},
		{[]float64{2, 3, 1}, 2},
	}
	for _, c := range cases {
		if got := median3(c.in); got != c.want {
			t.Errorf("median3(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
