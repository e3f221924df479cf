package streetlevel

import (
	"sync"
	"testing"

	"geoloc/internal/core"
	"geoloc/internal/faults"
	"geoloc/internal/geo"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

// TestCampaignRegistriesAreSeparate: two Tiny campaigns run at the same
// time, each handed its own registry, count exactly what one campaign run
// alone counts. Every counter read here is a pure function of the
// campaign, so a registry that saw the other campaign's work would read
// more. The degraded fault profile leaves holes for sanitization to
// count.
func TestCampaignRegistriesAreSeparate(t *testing.T) {
	names := []string{
		"netsim.pings", "cbg.locates", "streetlevel.geolocations",
		"sanitize.mesh_holes", "sanitize.anchors_removed",
		"sanitize.probe_holes", "sanitize.probes_removed",
	}
	run := func() []int64 {
		reg := telemetry.New()
		c := core.NewResilientCampaign(world.TinyConfig(), faults.Degraded(), reg)
		c.BuildTargetMatrix()
		for tg := range c.Targets {
			c.TargetRTT.LocateSubset(tg, nil, geo.TwoThirdsC)
		}
		p := New(c)
		for tg := 0; tg < 3; tg++ {
			p.Geolocate(tg)
		}
		counts := make([]int64, len(names))
		for i, name := range names {
			counts[i] = reg.Counter(name).Value()
		}
		return counts
	}

	serial := run()
	var a, b []int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a = run() }()
	go func() { defer wg.Done(); b = run() }()
	wg.Wait()

	for i, name := range names {
		if a[i] != serial[i] || b[i] != serial[i] {
			t.Errorf("%s: concurrent campaigns counted %d and %d, one campaign alone %d", name, a[i], b[i], serial[i])
		}
	}
	for i, name := range names {
		if serial[i] == 0 {
			t.Errorf("%s: a campaign that did the work counted nothing", name)
		}
	}
}
