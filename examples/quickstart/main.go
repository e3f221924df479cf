// Quickstart: build a small campaign and geolocate a handful of targets
// with each replicated technique.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"geoloc"
	"geoloc/internal/experiments"
	"geoloc/internal/world"
)

func main() {
	log.SetFlags(0)

	// A tiny world keeps the quickstart instant; swap in
	// geoloc.NewSystem(geoloc.PaperScale) for the full 723-target campaign.
	sys := geoloc.NewSystemFromConfig(world.TinyConfig(), experiments.QuickOptions(), nil)
	fmt.Printf("campaign ready: %d targets\n\n", sys.NumTargets())

	targets := sys.Targets()
	for _, ti := range []int{0, 1, 2} {
		fmt.Printf("target %d: %s in %s (%s)\n", ti, targets[ti].Addr, targets[ti].City, targets[ti].Continent)

		if est, err := sys.LocateCBG(ti); err == nil {
			fmt.Printf("  CBG (all VPs):      error %7.1f km\n", est.ErrorKm)
		}
		if est, err := sys.LocateShortestPing(ti); err == nil {
			fmt.Printf("  shortest ping:      error %7.1f km\n", est.ErrorKm)
		}
		if est, err := sys.LocateWithSelectedVP(ti, 1); err == nil {
			fmt.Printf("  1 selected VP:      error %7.1f km\n", est.ErrorKm)
		}
		res, err := sys.LocateStreetLevel(ti)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  street level:       error %7.1f km  (method=%s, %d landmarks, simulated %.0f s)\n\n",
			res.Estimate.ErrorKm, res.Method, res.Landmarks, res.SimulatedSeconds)
	}

	// Reproduce one of the paper's artifacts.
	rep, err := sys.Report("baseline")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.Render())
}
