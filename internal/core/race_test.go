package core_test

import (
	"sync"
	"testing"

	"geoloc/internal/core"
	"geoloc/internal/geo"
	"geoloc/internal/par"
	"geoloc/internal/sanitize"
	"geoloc/internal/world"
)

// TestConcurrentAnalysisSharesCaches drives several par-pooled analysis
// phases at once — two sanitization campaigns issuing pings and two CBG
// locate sweeps — all sharing one netsim skeleton table and the global
// telemetry registry. Its value is under `go test -race` (the CI race
// job): any unsynchronized access in the skeleton table, the measurement
// client, the telemetry counters, or the locate scratch pools surfaces
// here. The assertions themselves are deliberately weak; the race
// detector is the oracle.
func TestConcurrentAnalysisSharesCaches(t *testing.T) {
	c := core.NewCampaign(world.TinyConfig())
	c.BuildMatrices()

	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	run(func() {
		res := sanitize.Anchors(c.Platform, c.W.Anchors)
		if len(res.Kept)+len(res.Removed) != len(c.W.Anchors) {
			t.Error("anchor sanitization lost hosts")
		}
	})
	run(func() {
		res := sanitize.Probes(c.Platform, c.W.Probes, c.W.Anchors)
		if len(res.Kept)+len(res.Removed) != len(c.W.Probes) {
			t.Error("probe sanitization lost hosts")
		}
	})
	for g := 0; g < 2; g++ {
		run(func() {
			located := make([]bool, len(c.Targets))
			par.For(len(c.Targets), func(ti int) {
				_, ok := c.TargetRTT.LocateSubset(ti, nil, geo.TwoThirdsC)
				located[ti] = ok
			})
			any := false
			for _, ok := range located {
				any = any || ok
			}
			if !any {
				t.Error("no target located at all")
			}
		})
	}
	wg.Wait()
}
