// Streetlevel: walk the three tiers of the street level technique for one
// target and show why the paper could not replicate the original 690 m
// claim: landmark delays from traceroute RTT differences are noisy, and
// most targets have no street-level landmark at all.
//
//	go run ./examples/streetlevel
package main

import (
	"fmt"
	"log"
	"sort"

	"geoloc"
	"geoloc/internal/experiments"
	"geoloc/internal/geo"
	"geoloc/internal/streetlevel"
	"geoloc/internal/world"
)

func main() {
	log.SetFlags(0)
	sys := geoloc.NewSystemFromConfig(world.TinyConfig(), experiments.QuickOptions(), nil)
	c := sys.Campaign()
	pipe := streetlevel.New(c)

	// Pick the target with the most landmarks so the walk is instructive.
	best, bestLandmarks := 0, -1
	var bestRes streetlevel.Result
	for ti := 0; ti < len(c.Targets); ti++ {
		res := pipe.Geolocate(ti)
		if len(res.Landmarks) > bestLandmarks {
			best, bestLandmarks, bestRes = ti, len(res.Landmarks), res
		}
	}
	res := bestRes
	truth := c.Targets[best].Loc

	fmt.Printf("target %d (%s)\n", best, c.Targets[best].Addr)
	fmt.Printf("tier 1: CBG from %d anchors → error %.1f km (fallback speed used: %v)\n",
		len(c.SanitizedAnchors)-1, geo.Distance(res.Tier1, truth), res.UsedFallbackSpeed)

	fmt.Printf("tiers 2+3: %d mapping queries, %d website checks, %d landmarks passed\n",
		res.MappingQueries, res.WebsiteTests, len(res.Landmarks))

	// Show the landmark delay/distance relation the paper finds broken.
	landmarks := append([]streetlevel.Landmark(nil), res.Landmarks...)
	sort.Slice(landmarks, func(i, j int) bool {
		return geo.Distance(landmarks[i].Site.POILoc, truth) < geo.Distance(landmarks[j].Site.POILoc, truth)
	})
	show := landmarks
	if len(show) > 8 {
		show = show[:8]
	}
	fmt.Println("\nclosest landmarks (geographic) and their measured delays:")
	for _, lm := range show {
		status := "usable"
		if !lm.Usable {
			status = "UNUSABLE (negative D1+D2)"
		}
		fmt.Printf("  %6.1f km away  tier %d  hosting=%-9s  delay=%7.2f ms  %s\n",
			geo.Distance(lm.Site.POILoc, truth), lm.Tier, lm.Site.Hosting, lm.DelayMs, status)
	}

	fmt.Printf("\nfinal estimate: method=%s, error %.1f km (simulated time %.0f s)\n",
		res.Method, geo.Distance(res.Estimate, truth), res.TimeSeconds)
	if oracle, ok := streetlevel.ClosestLandmark(res, truth); ok {
		fmt.Printf("oracle (closest landmark): error %.1f km — the technique's lower bound\n",
			geo.Distance(oracle, truth))
	}
	fmt.Printf("fraction of landmarks with negative delay: %.0f%% (the paper's appendix-B noise)\n",
		100*res.NegativeDelayFrac)
}
