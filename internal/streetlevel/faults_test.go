package streetlevel

import (
	"math"
	"testing"

	"geoloc/internal/core"
	"geoloc/internal/faults"
	"geoloc/internal/world"
)

// hostileCampaign builds one shared campaign under the hostile profile —
// the auxiliary mapping/web services inherit its faults through New.
var hostileCampaign = func() *core.Campaign {
	c := core.NewResilientCampaign(world.TinyConfig(), faults.Hostile(), nil)
	c.BuildTargetMatrix()
	return c
}()

// TestGeolocateDegradesNeverErrors: under the hostile profile the
// three-tier pipeline must produce a usable estimate for every target —
// failed lookups and stale landmarks shrink the pool and push the result
// down-tier, they never panic or return garbage coordinates.
func TestGeolocateDegradesNeverErrors(t *testing.T) {
	p := New(hostileCampaign)
	for ti := 0; ti < 6 && ti < len(hostileCampaign.Targets); ti++ {
		res := p.Geolocate(ti)
		if res.Method != "landmark" && res.Method != "cbg" {
			t.Fatalf("target %d: method %q", ti, res.Method)
		}
		if res.TierCompleted < 1 || res.TierCompleted > 3 {
			t.Fatalf("target %d: tier %d", ti, res.TierCompleted)
		}
		if math.IsNaN(res.Estimate.Lat) || math.IsNaN(res.Estimate.Lon) ||
			res.Estimate.Lat < -90 || res.Estimate.Lat > 90 {
			t.Fatalf("target %d: estimate %+v", ti, res.Estimate)
		}
		if res.LookupFailures > res.MappingQueries {
			t.Fatalf("target %d: %d failures out of %d queries", ti, res.LookupFailures, res.MappingQueries)
		}
	}
	if p.Map.LookupFailures() == 0 {
		t.Fatal("hostile profile (25% lookup failure) failed no mapping queries")
	}
}

// TestGeolocateDeterministicUnderFaults: the degraded pipeline remains
// bit-deterministic — same seed, same faults, same estimate.
func TestGeolocateDeterministicUnderFaults(t *testing.T) {
	a, b := New(hostileCampaign), New(hostileCampaign)
	for ti := 0; ti < 4 && ti < len(hostileCampaign.Targets); ti++ {
		ra, rb := a.Geolocate(ti), b.Geolocate(ti)
		if ra.Estimate != rb.Estimate || ra.Method != rb.Method ||
			ra.TierCompleted != rb.TierCompleted ||
			ra.LookupFailures != rb.LookupFailures || len(ra.Landmarks) != len(rb.Landmarks) {
			t.Fatalf("target %d: hostile pipeline nondeterministic:\n%+v\n%+v", ti, ra, rb)
		}
	}
}

// TestFaultlessPipelineCountsNoAuxFailures: with no profile the services
// report zero injected failures and no stale sites.
func TestFaultlessPipelineCountsNoAuxFailures(t *testing.T) {
	p := New(camp) // the shared faultless campaign from streetlevel_test.go
	for ti := 0; ti < 4 && ti < len(camp.Targets); ti++ {
		if res := p.Geolocate(ti); res.LookupFailures != 0 {
			t.Fatalf("target %d: faultless pipeline counted %d lookup failures", ti, res.LookupFailures)
		}
	}
	if p.Map.LookupFailures() != 0 || p.Web.StaleSites() != 0 {
		t.Fatal("faultless pipeline accumulated aux-service fault counters")
	}
}
