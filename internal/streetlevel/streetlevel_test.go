package streetlevel

import (
	"math"
	"runtime/debug"
	"testing"

	"geoloc/internal/core"
	"geoloc/internal/geo"
	"geoloc/internal/world"
)

var (
	camp = func() *core.Campaign {
		c := core.NewCampaign(world.TinyConfig())
		c.BuildTargetMatrix()
		return c
	}()
	pipe = New(camp)
)

func TestGeolocateProducesEstimate(t *testing.T) {
	for target := 0; target < len(camp.Targets); target += 7 {
		res := pipe.Geolocate(target)
		if !res.Estimate.Valid() {
			t.Fatalf("target %d: invalid estimate", target)
		}
		if res.Method != "landmark" && res.Method != "cbg" {
			t.Fatalf("target %d: unexpected method %q", target, res.Method)
		}
		if res.MappingQueries <= 0 {
			t.Errorf("target %d: no mapping queries recorded", target)
		}
		if res.TimeSeconds <= 0 {
			t.Errorf("target %d: no simulated time recorded", target)
		}
	}
}

func TestGeolocateDeterministic(t *testing.T) {
	a := pipe.Geolocate(1)
	b := pipe.Geolocate(1)
	if a.Estimate != b.Estimate || a.Method != b.Method ||
		len(a.Landmarks) != len(b.Landmarks) || a.MappingQueries != b.MappingQueries {
		t.Fatal("street level geolocation not deterministic")
	}
}

func TestTier1IsCBGQuality(t *testing.T) {
	errs := 0
	n := 0
	for target := 0; target < len(camp.Targets); target += 5 {
		res := pipe.Geolocate(target)
		if !res.Tier1OK {
			continue
		}
		n++
		if camp.ErrorKm(target, res.Tier1) > 2000 {
			errs++
		}
	}
	if n == 0 {
		t.Fatal("tier 1 never produced a region")
	}
	if errs > n/3 {
		t.Errorf("%d/%d tier-1 estimates over 2000 km", errs, n)
	}
}

func TestLandmarksPassChecksAndDedupe(t *testing.T) {
	res := pipe.Geolocate(0)
	seen := make(map[uint64]bool)
	for _, lm := range res.Landmarks {
		if seen[lm.Site.Key] {
			t.Fatal("duplicate landmark")
		}
		seen[lm.Site.Key] = true
		if lm.Tier != 2 && lm.Tier != 3 {
			t.Fatalf("landmark tier %d", lm.Tier)
		}
		if lm.Usable && (math.IsNaN(lm.DelayMs) || lm.DelayMs < 0) {
			t.Fatal("usable landmark with bad delay")
		}
	}
}

func TestSomeTargetsFindLandmarks(t *testing.T) {
	found := 0
	for target := 0; target < len(camp.Targets); target++ {
		res := pipe.Geolocate(target)
		if len(res.Landmarks) > 0 {
			found++
		}
	}
	if found == 0 {
		t.Error("no target found any landmark; website model too strict")
	}
}

func TestNegativeDelayFractionInRange(t *testing.T) {
	for target := 0; target < len(camp.Targets); target += 3 {
		res := pipe.Geolocate(target)
		if res.NegativeDelayFrac < 0 || res.NegativeDelayFrac > 1 {
			t.Fatalf("negative delay fraction %v", res.NegativeDelayFrac)
		}
	}
}

func TestClosestLandmarkOracle(t *testing.T) {
	for target := 0; target < len(camp.Targets); target += 4 {
		res := pipe.Geolocate(target)
		truth := camp.Targets[target].Loc
		est, ok := ClosestLandmark(res, truth)
		if !ok {
			continue
		}
		// Oracle error must be ≤ street-level landmark error whenever the
		// technique picked a landmark.
		if res.Method == "landmark" {
			if geo.Distance(est, truth) > geo.Distance(res.Estimate, truth)+1e-9 {
				t.Fatalf("oracle worse than technique for target %d", target)
			}
		}
	}
}

func TestClosestAnchorVPsSorted(t *testing.T) {
	vps := pipe.closestAnchorVPs(0, 10)
	if len(vps) == 0 {
		t.Fatal("no vantage points")
	}
	prev := float32(-1)
	for _, vp := range vps {
		rtt := camp.TargetRTT.RTT[vp][0]
		if rtt < prev {
			t.Fatal("VPs not ascending by RTT")
		}
		prev = rtt
	}
	// All must be anchor rows.
	for _, vp := range vps {
		if camp.VPs[vp].Kind != world.Anchor {
			t.Fatal("non-anchor VP selected")
		}
	}
}

func TestLatencyCheckStricterThanChecks(t *testing.T) {
	// Latency-checked landmarks must be a subset of all landmarks, and the
	// check must reject at least some remote-DC landmarks overall.
	checkedRemote, remote := 0, 0
	for target := 0; target < len(camp.Targets); target += 2 {
		res := pipe.Geolocate(target)
		for _, lm := range res.Landmarks {
			if lm.Site.Hosting.String() == "remote-dc" {
				remote++
				if pipe.LatencyCheck(target, lm) {
					checkedRemote++
				}
			}
		}
	}
	if remote > 5 && checkedRemote == remote {
		t.Errorf("latency check accepted all %d remote-DC landmarks", remote)
	}
}

func TestBestLandmarkSelection(t *testing.T) {
	lms := []Landmark{
		{Tier: 2, DelayMs: 5, Usable: true},
		{Tier: 3, DelayMs: 9, Usable: true},
		{Tier: 3, DelayMs: 2, Usable: true},
		{Tier: 3, DelayMs: 1, Usable: false},
	}
	lm, ok := bestLandmark(lms, 3)
	if !ok || lm.DelayMs != 2 {
		t.Errorf("bestLandmark(3) = %+v ok=%v", lm, ok)
	}
	lm, ok = bestLandmark(lms, 0)
	if !ok || lm.DelayMs != 2 {
		t.Errorf("bestLandmark(any) = %+v ok=%v", lm, ok)
	}
	if _, ok := bestLandmark(nil, 0); ok {
		t.Error("empty landmark list should not select")
	}
	if _, ok := bestLandmark(lms[3:], 0); ok {
		t.Error("unusable-only list should not select")
	}
}

func TestTimeAccountingComponents(t *testing.T) {
	res := pipe.Geolocate(2)
	// Time must at least cover the three measurement rounds.
	minRounds := 3 * (camp.Platform.Cost.APISubmitSec + camp.Platform.Cost.SchedulingMinSec)
	if res.TimeSeconds < minRounds {
		t.Errorf("time %.0fs below the 3-round floor %.0fs", res.TimeSeconds, minRounds)
	}
}

// TestGeolocateAllocs pins a warm Geolocate on every Tiny target, faultless
// and hostile, at exactly one allocation, its result's landmark slice, or
// none for a target without a landmark: whatever the number of zips it
// queries and landmarks it measures, every working buffer is the
// pipeline's pooled scratch. The collector is off while it counts: a
// cycle empties every sync.Pool, and refilling the scratch pool or geo's
// sampler pool would count against whichever target it landed in.
func TestGeolocateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name string
		c    *core.Campaign
	}{{"none", camp}, {"hostile", hostileCampaign}} {
		p := New(tc.c)
		minZips, maxZips, maxLandmarks := math.MaxInt, 0, 0
		for i := range tc.c.Targets {
			res := p.Geolocate(i)
			want := 0.0
			if len(res.Landmarks) > 0 {
				want = 1
			}
			if n := testing.AllocsPerRun(3, func() { p.Geolocate(i) }); n != want {
				t.Errorf("%s target %d (%d mapping queries, %d landmarks): a warm Geolocate allocates %.1f, want %.0f",
					tc.name, i, res.MappingQueries, len(res.Landmarks), n, want)
			}
			minZips, maxZips = min(minZips, res.MappingQueries), max(maxZips, res.MappingQueries)
			maxLandmarks = max(maxLandmarks, len(res.Landmarks))
		}
		if minZips == maxZips || maxLandmarks < 2 {
			t.Errorf("%s: targets query %d to %d points and find at most %d landmarks: the pin proves nothing",
				tc.name, minZips, maxZips, maxLandmarks)
		}
	}
}
