package geoloc

// Integration tests: end-to-end invariants of a full campaign that span
// every subsystem (world → netsim → atlas → sanitize → core → techniques).
// They run at medium scale, which is large enough for the paper's shapes
// to emerge yet fast enough for the ordinary test run.

import (
	"math"
	"testing"

	"geoloc/internal/experiments"
	"geoloc/internal/geo"
	"geoloc/internal/stats"
	"geoloc/internal/world"
)

var mediumSys = func() *System {
	return NewSystemFromConfig(world.MediumConfig(), experiments.QuickOptions(), nil)
}()

func TestIntegrationSanitizerExactAtMediumScale(t *testing.T) {
	c := mediumSys.Campaign()
	cfg := world.MediumConfig()
	if len(c.RemovedAnchors) != cfg.CorruptAnchors {
		t.Errorf("removed %d anchors, want %d", len(c.RemovedAnchors), cfg.CorruptAnchors)
	}
	if len(c.RemovedProbes) != cfg.CorruptProbes {
		t.Errorf("removed %d probes, want %d", len(c.RemovedProbes), cfg.CorruptProbes)
	}
	for _, id := range c.RemovedAnchors {
		if !c.W.Host(id).Corrupted {
			t.Error("sanitizer removed a clean anchor")
		}
	}
	for _, id := range c.RemovedProbes {
		if !c.W.Host(id).Corrupted {
			t.Error("sanitizer removed a clean probe")
		}
	}
}

func TestIntegrationCBGCityLevelShare(t *testing.T) {
	c := mediumSys.Campaign()
	var errs []float64
	for ti := range c.Targets {
		if est, ok := c.TargetRTT.LocateSubset(ti, nil, geo.TwoThirdsC); ok {
			errs = append(errs, c.ErrorKm(ti, est))
		}
	}
	share := stats.FractionBelow(errs, 40)
	// The paper's headline is 73 %; the fixed-seed Medium campaign reads
	// 76 % (EXPERIMENTS.md, Medium column). ±8 points is about two standard
	// errors of a share of 148 targets: a kernel or calibration change that
	// leaves the band has moved the science, not the rounding.
	if share < 0.68 || share > 0.84 {
		t.Errorf("city-level share = %.3f, want 0.76 ± 0.08", share)
	}
}

func TestIntegrationRemovingCloseVPsDegrades(t *testing.T) {
	c := mediumSys.Campaign()
	var all, far []float64
	for ti := 0; ti < len(c.Targets); ti += 2 {
		if est, ok := c.TargetRTT.LocateSubset(ti, nil, geo.TwoThirdsC); ok {
			all = append(all, c.ErrorKm(ti, est))
		}
		var subset []int
		for vp, h := range c.VPs {
			if geo.Distance(h.Reported, c.Targets[ti].Loc) > 40 {
				subset = append(subset, vp)
			}
		}
		if est, ok := c.TargetRTT.LocateSubset(ti, subset, geo.TwoThirdsC); ok {
			far = append(far, c.ErrorKm(ti, est))
		}
	}
	mAll := stats.MustMedian(all)
	mFar := stats.MustMedian(far)
	// Fig 2c: 8 km → 120 km in the paper; require at least a 5× blowup.
	if mFar < 5*mAll {
		t.Errorf("removing close VPs: median %.1f → %.1f, want ≥5× degradation", mAll, mFar)
	}
}

func TestIntegrationFig5aShape(t *testing.T) {
	rep, err := mediumSys.Report("fig5a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("fig5a rows = %d", len(rep.Rows))
	}
}

func TestIntegrationDeterministicAcrossSystems(t *testing.T) {
	a := NewSystemFromConfig(world.TinyConfig(), experiments.QuickOptions(), nil)
	b := NewSystemFromConfig(world.TinyConfig(), experiments.QuickOptions(), nil)
	for ti := 0; ti < a.NumTargets(); ti += 3 {
		ea, erra := a.LocateCBG(ti)
		eb, errb := b.LocateCBG(ti)
		if (erra == nil) != (errb == nil) {
			t.Fatalf("target %d: divergent errors", ti)
		}
		if erra == nil && ea.Location != eb.Location {
			t.Fatalf("target %d: divergent estimates", ti)
		}
		sa, _ := a.LocateStreetLevel(ti)
		sb, _ := b.LocateStreetLevel(ti)
		if sa.Estimate.Location != sb.Estimate.Location || sa.Landmarks != sb.Landmarks {
			t.Fatalf("target %d: divergent street-level results", ti)
		}
	}
}

func TestIntegrationVPSelectionSignal(t *testing.T) {
	// The single selected VP must usually be among the geographically
	// closest: median distance of the selected VP well under the median
	// distance of a random VP.
	c := mediumSys.Campaign()
	var selDist, medianAll []float64
	for ti := range c.Targets {
		sel := c.RepRTT.ClosestVPs(ti, 1)
		if len(sel) == 0 {
			continue
		}
		selDist = append(selDist, geo.Distance(c.VPs[sel[0]].Loc, c.Targets[ti].Loc))
		medianAll = append(medianAll, geo.Distance(c.VPs[(ti*37)%len(c.VPs)].Loc, c.Targets[ti].Loc))
	}
	if stats.MustMedian(selDist) > stats.MustMedian(medianAll)/5 {
		t.Errorf("selected VP median distance %.0f km vs random %.0f km — selection signal too weak",
			stats.MustMedian(selDist), stats.MustMedian(medianAll))
	}
}

func TestIntegrationMatrixHasNoNegativeRTTs(t *testing.T) {
	c := mediumSys.Campaign()
	for vp := range c.TargetRTT.RTT {
		for ti := range c.TargetRTT.RTT[vp] {
			v := float64(c.TargetRTT.RTT[vp][ti])
			if !math.IsNaN(v) && v <= 0 {
				t.Fatalf("non-positive RTT %v at [%d][%d]", v, vp, ti)
			}
		}
	}
}

func TestIntegrationCampaignCounters(t *testing.T) {
	// The platform counted every measurement of the campaign: at least
	// (VPs × targets) target pings plus (VPs × targets × 3) rep pings minus
	// self-pairs, plus the sanitizer's mesh.
	c := mediumSys.Campaign()
	st := c.Platform.Stats()
	minPings := int64(len(c.VPs)-1) * int64(len(c.Targets)) * 4
	if st.Pings < minPings {
		t.Errorf("platform counted %d pings, expected at least %d", st.Pings, minPings)
	}
	if st.Credits <= 0 {
		t.Error("credits not accounted")
	}
}
