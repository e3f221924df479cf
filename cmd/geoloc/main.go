// Command geoloc geolocates simulated targets with the replicated
// techniques and prints per-target results.
//
// Usage:
//
//	geoloc [-scale tiny|medium|paper] [-technique cbg|shortest|vpsel|street]
//	       [-k 10] [-targets 0,1,2 | -all] [-showtrace]
//	       [-metrics] [-trace t.json] [-pprof :6060]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"geoloc"
	"geoloc/internal/experiments"
	"geoloc/internal/netsim"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("geoloc: ")
	scale := flag.String("scale", "medium", "campaign scale: tiny, medium, or paper")
	technique := flag.String("technique", "cbg", "cbg, shortest, vpsel, or street")
	k := flag.Int("k", 10, "number of selected VPs for -technique vpsel")
	targets := flag.String("targets", "0", "comma-separated target indices")
	all := flag.Bool("all", false, "geolocate every target")
	showtrace := flag.Bool("showtrace", false, "print a traceroute from the best vantage point to each target")
	tele := telemetry.NewCLI()
	flag.Parse()
	tele.Start()
	defer tele.Finish()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg, err := world.ParseScale(*scale)
	if err != nil {
		log.Fatal(err)
	}
	sys := geoloc.NewSystemFromConfig(cfg, experiments.QuickOptions(), tele.Registry())
	tele.Attach("campaign", sys.Campaign().Platform.Reg)

	var idx []int
	if *all {
		for i := 0; i < sys.NumTargets(); i++ {
			idx = append(idx, i)
		}
	} else {
		for _, part := range strings.Split(*targets, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				log.Fatalf("bad target %q: %v", part, err)
			}
			idx = append(idx, v)
		}
	}

	list := sys.Targets()
	var sumErr float64
	located := 0
	for _, ti := range idx {
		if ctx.Err() != nil {
			log.Printf("interrupted after %d of %d targets", located, len(idx))
			break
		}
		if ti < 0 || ti >= len(list) {
			log.Fatalf("target %d out of range [0, %d)", ti, len(list))
		}
		est, detail, err := locate(sys, *technique, ti, *k)
		if err != nil {
			fmt.Printf("target %4d  %-16s %s: %v\n", ti, list[ti].Addr, *technique, err)
			continue
		}
		located++
		sumErr += est.ErrorKm
		fmt.Printf("target %4d  %-16s %s (%s): est=(%.4f, %.4f)  error=%.1f km%s\n",
			ti, list[ti].Addr, *technique, list[ti].Continent,
			est.Location.Lat, est.Location.Lon, est.ErrorKm, detail)
		if *showtrace {
			printTrace(sys, ti)
		}
	}
	if located > 1 {
		fmt.Printf("geolocated %d targets, mean error %.1f km\n", located, sumErr/float64(located))
	}
	if ctx.Err() != nil {
		tele.Finish()
		os.Exit(130)
	}
}

// printTrace shows the measurement view the platform has of the target: a
// traceroute from the lowest-RTT vantage point.
func printTrace(sys *geoloc.System, target int) {
	c := sys.Campaign()
	best := c.TargetRTT.ClosestVPs(target, 1)
	if len(best) == 0 {
		fmt.Println("  (no responsive vantage point)")
		return
	}
	tr := c.Platform.Traceroute(c.VPs[best[0]], c.Targets[target], 0xDEB6)
	for _, line := range strings.Split(strings.TrimRight(netsim.RenderTrace(tr), "\n"), "\n") {
		fmt.Println("   ", line)
	}
}

func locate(sys *geoloc.System, technique string, target, k int) (geoloc.Estimate, string, error) {
	switch technique {
	case "cbg":
		est, err := sys.LocateCBG(target)
		return est, "", err
	case "shortest":
		est, err := sys.LocateShortestPing(target)
		return est, "", err
	case "vpsel":
		est, err := sys.LocateWithSelectedVP(target, k)
		return est, "", err
	case "street":
		res, err := sys.LocateStreetLevel(target)
		if err != nil {
			return geoloc.Estimate{}, "", err
		}
		detail := fmt.Sprintf("  [method=%s landmarks=%d t=%.0fs]",
			res.Method, res.Landmarks, res.SimulatedSeconds)
		return res.Estimate, detail, nil
	default:
		return geoloc.Estimate{}, "", fmt.Errorf("unknown technique %q", technique)
	}
}
