package vpsel

import (
	"math"
	"testing"

	"geoloc/internal/core"
	"geoloc/internal/geo"
	"geoloc/internal/world"
)

var camp = func() *core.Campaign {
	c := core.NewCampaign(world.TinyConfig())
	c.BuildMatrices()
	return c
}()

// campTable is camp's cover table, built once for the multi-step tests.
var campTable = NewCoverTable(camp.RepRTT, campaignMeta(camp))

func campaignMeta(c *core.Campaign) []VPMeta {
	meta := make([]VPMeta, len(c.VPs))
	for i, h := range c.VPs {
		meta[i] = VPMeta{AS: h.AS, City: h.City}
	}
	return meta
}

func TestOriginalSelectOrdering(t *testing.T) {
	for target := 0; target < len(camp.Targets); target += 5 {
		sel := OriginalSelect(camp.RepRTT, target, 10)
		if len(sel) == 0 {
			t.Fatalf("target %d: empty selection", target)
		}
		prev := float32(-1)
		for _, vp := range sel {
			rtt := camp.RepRTT.RTT[vp][target]
			if math.IsNaN(float64(rtt)) {
				t.Fatalf("selected unresponsive VP %d", vp)
			}
			if rtt < prev {
				t.Fatal("selection not ascending by RTT")
			}
			prev = rtt
		}
	}
}

func TestOriginalSelectFindsCloseVP(t *testing.T) {
	// The lowest-rep-RTT VP should usually be geographically close: that is
	// the algorithm's core hypothesis, re-validated in §5.1.2.
	closeEnough := 0
	for target := range camp.Targets {
		sel := OriginalSelect(camp.RepRTT, target, 1)
		if len(sel) == 0 {
			continue
		}
		d := geo.Distance(camp.VPs[sel[0]].Loc, camp.Targets[target].Loc)
		if d < 500 {
			closeEnough++
		}
	}
	if frac := float64(closeEnough) / float64(len(camp.Targets)); frac < 0.6 {
		t.Errorf("closest-rep-RTT VP within 500 km for only %.0f%% of targets", 100*frac)
	}
}

func TestOriginalOverheadPings(t *testing.T) {
	// Paper scale: 10k VPs × 723 targets × 3 reps ≈ 21.7M (§5.1.4).
	got := OriginalOverheadPings(10000, 723, 10)
	if got != int64(10000)*723*3+723*10 {
		t.Errorf("overhead = %d", got)
	}
}

func TestGreedyCoverBasics(t *testing.T) {
	locs := []geo.Point{
		{Lat: 0, Lon: 0}, {Lat: 0, Lon: 1}, {Lat: 1, Lon: 0}, // cluster A
		{Lat: 50, Lon: 100},  // lone B
		{Lat: -40, Lon: -60}, // lone C
	}
	sel := GreedyCover(locs, 3)
	if len(sel) != 3 {
		t.Fatalf("selected %d", len(sel))
	}
	picked := make(map[int]bool)
	for _, i := range sel {
		if i < 0 || i >= len(locs) || picked[i] {
			t.Fatalf("invalid selection %v", sel)
		}
		picked[i] = true
	}
	// The two lone points must both be chosen: they dominate log-distance.
	if !picked[3] || !picked[4] {
		t.Errorf("greedy cover missed the isolated points: %v", sel)
	}
}

func TestGreedyCoverEdgeCases(t *testing.T) {
	if sel := GreedyCover(nil, 5); sel != nil {
		t.Error("empty locs should yield nil")
	}
	if sel := GreedyCover([]geo.Point{{Lat: 1, Lon: 1}}, 0); sel != nil {
		t.Error("n=0 should yield nil")
	}
	locs := []geo.Point{{Lat: 1, Lon: 1}, {Lat: 2, Lon: 2}}
	if sel := GreedyCover(locs, 10); len(sel) != 2 {
		t.Errorf("n>len should return all: %v", sel)
	}
}

func TestGreedyCoverSpreads(t *testing.T) {
	locs := make([]geo.Point, len(camp.VPs))
	for i, h := range camp.VPs {
		locs[i] = h.Reported
	}
	sel := GreedyCover(locs, 10)
	// Mean pairwise distance of greedy picks must beat the first 10 VPs
	// (an arbitrary clustered subset).
	mean := func(idx []int) float64 {
		var sum float64
		var n int
		for i := 0; i < len(idx); i++ {
			for j := i + 1; j < len(idx); j++ {
				sum += geo.Distance(locs[idx[i]], locs[idx[j]])
				n++
			}
		}
		return sum / float64(n)
	}
	first10 := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if mean(sel) <= mean(first10) {
		t.Errorf("greedy picks (%.0f km mean spacing) should spread wider than the first 10 (%.0f km)",
			mean(sel), mean(first10))
	}
}

func TestGreedyCoverDeterministic(t *testing.T) {
	locs := make([]geo.Point, len(camp.VPs))
	for i, h := range camp.VPs {
		locs[i] = h.Reported
	}
	a := GreedyCover(locs, 8)
	b := GreedyCover(locs, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy cover not deterministic")
		}
	}
}

func TestTwoStepSelect(t *testing.T) {
	meta := campaignMeta(camp)
	locs := make([]geo.Point, len(camp.VPs))
	for i, h := range camp.VPs {
		locs[i] = h.Reported
	}
	firstStep := GreedyCover(locs, 10)

	okCount := 0
	for target := range camp.Targets {
		res, ok := TwoStepSelect(camp.RepRTT, meta, firstStep, target)
		if !ok {
			continue
		}
		okCount++
		if res.SelectedVP < 0 || res.SelectedVP >= len(camp.VPs) {
			t.Fatalf("invalid selected VP %d", res.SelectedVP)
		}
		wantMin := int64(len(firstStep)) * RepPingsPerVP
		if res.Pings < wantMin {
			t.Fatalf("pings %d below first-step floor %d", res.Pings, wantMin)
		}
		if len(res.SecondStep) == 0 {
			t.Fatal("second step empty despite ok")
		}
	}
	if okCount < len(camp.Targets)*8/10 {
		t.Errorf("two-step succeeded for only %d/%d targets", okCount, len(camp.Targets))
	}
}

func TestTwoStepSecondStepDedupesASCity(t *testing.T) {
	meta := campaignMeta(camp)
	locs := make([]geo.Point, len(camp.VPs))
	for i, h := range camp.VPs {
		locs[i] = h.Reported
	}
	firstStep := GreedyCover(locs, 10)
	res, ok := TwoStepSelect(camp.RepRTT, meta, firstStep, 0)
	if !ok {
		t.Skip("target 0 not selectable")
	}
	type key struct{ as, city int }
	seen := make(map[key]bool)
	for _, vp := range res.SecondStep {
		k := key{meta[vp].AS, meta[vp].City}
		if seen[k] {
			t.Fatalf("duplicate AS/city pair in second step: %+v", k)
		}
		seen[k] = true
	}
}

func TestTwoStepAccuracyComparableToFull(t *testing.T) {
	// The headline of §5.1.4: the two-step selection does not degrade
	// accuracy. Compare single-VP geolocation error medians.
	meta := campaignMeta(camp)
	locs := make([]geo.Point, len(camp.VPs))
	for i, h := range camp.VPs {
		locs[i] = h.Reported
	}
	firstStep := GreedyCover(locs, 10)

	var fullErr, twoErr []float64
	for target := range camp.Targets {
		full := OriginalSelect(camp.RepRTT, target, 1)
		if len(full) == 0 {
			continue
		}
		res, ok := TwoStepSelect(camp.RepRTT, meta, firstStep, target)
		if !ok {
			continue
		}
		if est, ok := camp.TargetRTT.LocateSubset(target, full, geo.TwoThirdsC); ok {
			fullErr = append(fullErr, camp.ErrorKm(target, est))
		}
		if est, ok := camp.TargetRTT.LocateSubset(target, []int{res.SelectedVP}, geo.TwoThirdsC); ok {
			twoErr = append(twoErr, camp.ErrorKm(target, est))
		}
	}
	if len(fullErr) < 10 || len(twoErr) < 10 {
		t.Skip("not enough comparable targets in tiny world")
	}
	medFull := median(fullErr)
	medTwo := median(twoErr)
	if medTwo > 5*medFull+50 {
		t.Errorf("two-step median error %.1f km vs full %.1f km — degradation too large",
			medTwo, medFull)
	}
}

func TestTwoStepCheaperThanOriginal(t *testing.T) {
	meta := campaignMeta(camp)
	locs := make([]geo.Point, len(camp.VPs))
	for i, h := range camp.VPs {
		locs[i] = h.Reported
	}
	firstStep := GreedyCover(locs, 10)

	var total int64
	n := 0
	for target := range camp.Targets {
		if res, ok := TwoStepSelect(camp.RepRTT, meta, firstStep, target); ok {
			total += res.Pings
			n++
		}
	}
	if n == 0 {
		t.Fatal("no successful selections")
	}
	original := OriginalOverheadPings(len(camp.VPs), n, 10)
	if total >= original {
		t.Errorf("two-step (%d pings) not cheaper than original (%d)", total, original)
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
