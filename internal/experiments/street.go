package experiments

import (
	"fmt"
	"math"

	"geoloc/internal/geo"
	"geoloc/internal/par"
	"geoloc/internal/stats"
	"geoloc/internal/streetlevel"
)

// Fig5a reproduces Fig 5a: the error of the street level technique, CBG
// (anchors as VPs), and the closest-landmark oracle.
func Fig5a(ctx *Context) *Report {
	c := ctx.C
	results := ctx.StreetResults()

	var street, cbgErrs, oracle []float64
	noLandmark, fallbackSpeed := 0, 0
	for ti, res := range results {
		truth := c.Targets[ti].Loc
		street = append(street, geo.Distance(res.Estimate, truth))
		cbgErrs = append(cbgErrs, geo.Distance(res.Tier1, truth))
		if est, ok := streetlevel.ClosestLandmark(res, truth); ok {
			oracle = append(oracle, geo.Distance(est, truth))
		} else {
			// As in the paper: targets without any landmark fall back to
			// the CBG estimate for both street level and the oracle.
			oracle = append(oracle, geo.Distance(res.Tier1, truth))
			noLandmark++
		}
		if res.UsedFallbackSpeed {
			fallbackSpeed++
		}
	}
	rep := &Report{
		ID:       "fig5a",
		Title:    "Street level vs CBG vs closest-landmark oracle",
		PaperRef: "Fig 5a / §5.2.1",
		Header:   cdfHeader("technique"),
		Rows: [][]string{
			cdfRow("Street Level", street),
			cdfRow("CBG", cbgErrs),
			cdfRow("Closest Landmark", oracle),
		},
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("targets without any landmark: %d (paper: 46)", noLandmark),
		fmt.Sprintf("targets needing the 2/3c fallback speed: %d (paper: 5)", fallbackSpeed),
		"paper: street level 28 km median vs CBG 29 km — two orders of magnitude off the original 690 m claim")
	return rep
}

// Fig5b reproduces Fig 5b: how many targets have a landmark within 1, 5, 10
// and 40 km — optimistically, and after the additional latency checks.
func Fig5b(ctx *Context) *Report {
	c := ctx.C
	results := ctx.StreetResults()
	dists := []float64{1, 5, 10, 40}
	plain := make([]int, len(dists))
	checked := make([]int, len(dists))
	totalTests, totalLandmarks := 0, 0

	type flags struct{ plain, checked [4]bool }
	perTarget := make([]flags, len(results))
	par.For(len(results), func(ti int) {
		res := results[ti]
		truth := c.Targets[ti].Loc
		var f flags
		for _, lm := range res.Landmarks {
			d := geo.Distance(lm.Site.POILoc, truth)
			pass := false
			passKnown := false
			for i, th := range dists {
				if d <= th {
					f.plain[i] = true
					if !passKnown {
						pass = ctx.SL.LatencyCheck(ti, lm)
						passKnown = true
					}
					if pass {
						f.checked[i] = true
					}
				}
			}
		}
		perTarget[ti] = f
	})
	for ti := range results {
		totalTests += results[ti].WebsiteTests
		totalLandmarks += len(results[ti].Landmarks)
		for i := range dists {
			if perTarget[ti].plain[i] {
				plain[i]++
			}
			if perTarget[ti].checked[i] {
				checked[i]++
			}
		}
	}

	n := float64(len(results))
	rep := &Report{
		ID:       "fig5b",
		Title:    "Targets with at least one close landmark",
		PaperRef: "Fig 5b / §5.2.2",
		Header:   []string{"landmark distance", "# of targets", "# with latency-checked landmarks"},
	}
	for i, th := range dists {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%.0f km", th),
			fmt.Sprintf("%d (%.0f%%)", plain[i], 100*float64(plain[i])/n),
			fmt.Sprintf("%d (%.0f%%)", checked[i], 100*float64(checked[i])/n),
		})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("websites tested: %d, passed the locally-hosted checks: %d (%.1f%%; paper: 65,325 of 2,584,527 = 2.5%%)",
			totalTests, totalLandmarks, 100*float64(totalLandmarks)/math.Max(1, float64(totalTests))),
		"paper: 28% of targets have a landmark within 1 km (optimistic), 17% after latency checks")
	return rep
}

// Fig5c reproduces Fig 5c: measured vs geographic landmark distances for
// four targets with increasing geolocation error, plus the overall
// correlation the paper reports in §5.2.3.
func Fig5c(ctx *Context) *Report {
	c := ctx.C
	results := ctx.StreetResults()

	// Per-target Pearson correlation between measured and geographic
	// distance over usable landmarks.
	var corrs []float64
	type sample struct {
		target int
		err    float64
		corr   float64
		n      int
	}
	var samples []sample
	most := 0
	for _, res := range results {
		most = max(most, len(res.Landmarks))
	}
	geoD, measD := make([]float64, 0, most), make([]float64, 0, most)
	for ti, res := range results {
		truth := c.Targets[ti].Loc
		geoD, measD = geoD[:0], measD[:0]
		for _, lm := range res.Landmarks {
			if !lm.Usable {
				continue
			}
			geoD = append(geoD, geo.Distance(lm.Site.POILoc, truth))
			measD = append(measD, geo.RTTToDistanceKm(lm.DelayMs, geo.FourNinthsC))
		}
		r, err := stats.Pearson(measD, geoD)
		if err != nil {
			continue
		}
		corrs = append(corrs, r)
		samples = append(samples, sample{
			target: ti,
			err:    geo.Distance(res.Estimate, truth),
			corr:   r,
			n:      len(geoD),
		})
	}

	rep := &Report{
		ID:       "fig5c",
		Title:    "Measured vs geographic landmark distance",
		PaperRef: "Fig 5c / §5.2.3",
		Header:   []string{"example target", "street error (km)", "usable landmarks", "Pearson r"},
	}
	// Pick one example target per error band, as the paper's figure does.
	for _, band := range []struct {
		label  string
		lo, hi float64
	}{
		{"< 1 km error", 0, 1},
		{"~5 km error", 1, 5},
		{"~10 km error", 5, 10},
		{"~40 km error", 10, 40},
	} {
		best := -1
		for i, s := range samples {
			if s.err >= band.lo && s.err < band.hi && s.n >= 3 {
				if best < 0 || s.n > samples[best].n {
					best = i
				}
			}
		}
		if best < 0 {
			continue
		}
		s := samples[best]
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%s (target %d)", band.label, s.target),
			fmt.Sprintf("%.1f", s.err),
			fmt.Sprintf("%d", s.n),
			fmt.Sprintf("%.2f", s.corr),
		})
	}
	if len(corrs) > 0 {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("median Pearson correlation across all %d targets: %.2f (paper: 0.08 — essentially no correlation)",
				len(corrs), stats.MustMedian(corrs)))
	}
	return rep
}

// Fig6a reproduces Fig 6a: the per-target fraction of landmarks whose D1+D2
// delay is negative and therefore unusable.
func Fig6a(ctx *Context) *Report {
	results := ctx.StreetResults()
	var fracs []float64
	for _, res := range results {
		if len(res.Landmarks) > 0 {
			fracs = append(fracs, res.NegativeDelayFrac)
		}
	}
	rep := &Report{
		ID:       "fig6a",
		Title:    "Fraction of landmarks with D1+D2 < 0",
		PaperRef: "Fig 6a / §5.2.3 and appendix B",
		Header:   []string{"quantile", "fraction of landmarks unusable"},
	}
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90} {
		v, err := stats.Quantile(fracs, q)
		if err != nil {
			continue
		}
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("p%.0f", q*100), fmt.Sprintf("%.2f", v)})
	}
	rep.Notes = append(rep.Notes,
		"paper: for 50% of targets at least 28% of landmark delays are negative/unusable")
	return rep
}

// Fig6b reproduces Fig 6b: geolocation error versus population density at
// the target, with a least-squares fit.
func Fig6b(ctx *Context) *Report {
	c := ctx.C
	results := ctx.StreetResults()
	var logErr, logDens []float64
	bands := map[string][]float64{}
	bandOf := func(d float64) string {
		switch {
		case d < 100:
			return "rural (<100 /km2)"
		case d < 1000:
			return "suburban (100-1000)"
		default:
			return "urban (>1000)"
		}
	}
	for ti, res := range results {
		err := geo.Distance(res.Estimate, c.Targets[ti].Loc)
		dens := c.W.PopGrid.DensityAt(c.Targets[ti].Loc)
		if err <= 0 || dens <= 0 {
			continue
		}
		logErr = append(logErr, math.Log10(err))
		logDens = append(logDens, math.Log10(dens))
		bands[bandOf(dens)] = append(bands[bandOf(dens)], err)
	}
	rep := &Report{
		ID:       "fig6b",
		Title:    "Error distance vs population density",
		PaperRef: "Fig 6b / §5.2.4",
		Header:   []string{"density band", "n", "median error (km)"},
	}
	for _, band := range []string{"rural (<100 /km2)", "suburban (100-1000)", "urban (>1000)"} {
		errs := bands[band]
		if len(errs) == 0 {
			continue
		}
		rep.Rows = append(rep.Rows, []string{band, fmt.Sprintf("%d", len(errs)),
			fmt.Sprintf("%.1f", stats.MustMedian(errs))})
	}
	if fit, err := stats.LinRegress(logDens, logErr); err == nil {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("log-log fit: slope=%.3f, R=%.3f (paper: error does not improve with density)", fit.Slope, fit.R))
	}
	return rep
}

// Fig6c reproduces Fig 6c: the simulated time to geolocate a target with
// the street level technique.
func Fig6c(ctx *Context) *Report {
	results := ctx.StreetResults()
	var times []float64
	for _, res := range results {
		times = append(times, res.TimeSeconds)
	}
	rep := &Report{
		ID:       "fig6c",
		Title:    "Time to geolocate a target",
		PaperRef: "Fig 6c / §5.2.5",
		Header:   []string{"quantile", "seconds"},
	}
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99} {
		v, err := stats.Quantile(times, q)
		if err != nil {
			continue
		}
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("p%.0f", q*100), fmt.Sprintf("%.0f", v)})
	}
	rep.Notes = append(rep.Notes,
		"paper: median 1,238 s (~20 minutes) per target — far from the original paper's claimed 1-2 s")
	return rep
}
