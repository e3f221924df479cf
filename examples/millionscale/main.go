// Millionscale: walk the million scale paper's vantage-point selection and
// the replication's two-step extension (§5.1.4), showing the accuracy /
// measurement-overhead trade-off that decides deployability on RIPE Atlas.
//
//	go run ./examples/millionscale
package main

import (
	"fmt"
	"log"
	"math"

	"geoloc"
	"geoloc/internal/experiments"
	"geoloc/internal/geo"
	"geoloc/internal/stats"
	"geoloc/internal/vpsel"
	"geoloc/internal/world"
)

func main() {
	log.SetFlags(0)
	sys := geoloc.NewSystemFromConfig(world.MediumConfig(), experiments.QuickOptions(), nil)
	c := sys.Campaign()
	fmt.Printf("campaign: %d VPs, %d targets\n\n", len(c.VPs), len(c.Targets))

	// 1. The original algorithm: every VP probes every target's three /24
	//    representatives, then the k lowest-RTT VPs geolocate the target.
	for _, k := range []int{1, 10} {
		var errs []float64
		for ti := range c.Targets {
			sel := vpsel.OriginalSelect(c.RepRTT, ti, k)
			if len(sel) == 0 {
				continue
			}
			if est, ok := c.TargetRTT.LocateSubset(ti, sel, geo.TwoThirdsC); ok {
				errs = append(errs, c.ErrorKm(ti, est))
			}
		}
		fmt.Printf("original selection, %2d VP(s): median error %6.1f km over %d targets\n",
			k, stats.MustMedian(errs), len(errs))
	}
	original := vpsel.OriginalOverheadPings(len(c.VPs), len(c.Targets), 10)
	fmt.Printf("original overhead: %.2fM pings — this is what RIPE Atlas cannot sustain (§5.1.3)\n\n",
		float64(original)/1e6)

	// 2. The two-step extension: a small Earth-covering first step shrinks
	//    the region, then one VP per AS/city inside it probes the reps.
	//    Greedy picks are prefix-stable, so one 300-VP cover holds every
	//    smaller first step as its prefix.
	locs := make([]geo.Point, len(c.VPs))
	meta := make([]vpsel.VPMeta, len(c.VPs))
	for i, h := range c.VPs {
		locs[i] = h.Reported
		meta[i] = vpsel.VPMeta{AS: h.AS, City: h.City}
	}
	cover := vpsel.GreedyCover(locs, 300)
	for _, size := range []int{10, 100, 300} {
		firstStep := cover[:size]
		var errs []float64
		var pings int64
		for ti := range c.Targets {
			res, ok := vpsel.TwoStepSelect(c.RepRTT, meta, firstStep, ti)
			pings += res.Pings
			if !ok {
				continue
			}
			if est, ok := c.TargetRTT.LocateSubset(ti, []int{res.SelectedVP}, geo.TwoThirdsC); ok {
				errs = append(errs, c.ErrorKm(ti, est))
			}
		}
		if len(errs) == 0 {
			continue
		}
		fmt.Printf("two-step, first step %4d VPs: median error %6.1f km, %.2fM pings (%.1f%% of original)\n",
			size, stats.MustMedian(errs), float64(pings)/1e6,
			100*float64(pings)/math.Max(1, float64(original)))
	}
	fmt.Println("\npaper: the best trade-off used 13.2% of the original measurements at equal accuracy")
}
