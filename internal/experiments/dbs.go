package experiments

import (
	"fmt"

	"geoloc/internal/geo"
	"geoloc/internal/geodb"
	"geoloc/internal/stats"
)

// Fig7 reproduces Fig 7: CBG with all RIPE Atlas VPs versus the MaxMind
// free database and IPinfo.
func Fig7(ctx *Context) *Report {
	c := ctx.C
	var mmErrs, iiErrs []float64
	mm := &geodb.MaxMindFree{W: c.W}
	ii := geodb.NewIPinfo(c.W)
	for ti := range c.Targets {
		truth := c.Targets[ti].Loc
		mmErrs = append(mmErrs, geo.Distance(mm.Lookup(c.Targets[ti]).Loc, truth))
		iiErrs = append(iiErrs, geo.Distance(ii.Lookup(c.Targets[ti]).Loc, truth))
	}
	rep := &Report{
		ID:       "fig7",
		Title:    "CBG with all VPs vs geolocation databases",
		PaperRef: "Fig 7 / §6",
		Header:   cdfHeader("source"),
		Rows: [][]string{
			cdfRow("All VPs (CBG)", compactNaN(ctx.allVPErrors())),
			cdfRow(mm.Name(), mmErrs),
			cdfRow(ii.Name(), iiErrs),
		},
	}
	rep.Notes = append(rep.Notes,
		"paper: IPinfo 89% ≤40 km > CBG all VPs 73% > MaxMind free 55%")
	return rep
}

// Fig8 reproduces appendix C's Fig 8: the population-density distribution
// of the target set (it must cover both rural and urban areas).
func Fig8(ctx *Context) *Report {
	c := ctx.C
	var dens []float64
	for _, t := range c.Targets {
		dens = append(dens, c.W.PopGrid.DensityAt(t.Loc))
	}
	rep := &Report{
		ID:       "fig8",
		Title:    "Population density of the targets",
		PaperRef: "Fig 8 / appendix C",
		Header:   []string{"quantile", "people/km2"},
	}
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90} {
		v, err := stats.Quantile(dens, q)
		if err != nil {
			continue
		}
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("p%.0f", q*100), fmt.Sprintf("%.0f", v)})
	}
	rep.Notes = append(rep.Notes,
		"paper: the target set covers both rural and urban areas")
	return rep
}

// Baseline reproduces §7.1: the new baseline the paper sets for future
// geolocation techniques.
func Baseline(ctx *Context) *Report {
	c := ctx.C
	results := ctx.StreetResults()
	cbgErrs := compactNaN(ctx.allVPErrors())
	var streetErrs []float64
	for ti := range c.Targets {
		truth := c.Targets[ti].Loc
		streetErrs = append(streetErrs, geo.Distance(results[ti].Estimate, truth))
	}
	rep := &Report{
		ID:       "baseline",
		Title:    "New baseline for future geolocation techniques",
		PaperRef: "§7.1",
		Header:   []string{"criterion", "value", "paper"},
		Rows: [][]string{
			{"CBG (all VPs) city level (≤40 km)", fmt.Sprintf("%.0f%%", 100*stats.FractionBelow(cbgErrs, 40)), "73%"},
			{"CBG (all VPs) street level (≤1 km)", fmt.Sprintf("%.0f%%", 100*stats.FractionBelow(cbgErrs, 1)), "11%"},
			{"street level technique city level (≤40 km)", fmt.Sprintf("%.0f%%", 100*stats.FractionBelow(streetErrs, 40)), "~73%"},
			{"CBG (all VPs) median error", fmt.Sprintf("%.1f km", stats.MustMedian(cbgErrs)), "~8 km"},
		},
	}
	rep.Notes = append(rep.Notes,
		"coverage: no technique can geolocate millions of IP addresses in a few months on RIPE Atlas (§5.1.3)")
	return rep
}
