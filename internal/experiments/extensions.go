package experiments

import (
	"fmt"
	"math"

	"geoloc/internal/geo"
	"geoloc/internal/netsim"
	"geoloc/internal/par"
	"geoloc/internal/stats"
	"geoloc/internal/vpsel"
)

// Deploy reproduces the deployability analysis of §5.1.3: the original VP
// selection algorithm needs every VP to probe three representatives of
// every routable /24, which exceeds RIPE Atlas probing budgets by orders
// of magnitude.
func Deploy(ctx *Context) *Report {
	c := ctx.C
	const routable24s = 11_500_000 // ~35% of the 2012 IPv4 space, per the paper

	// Packets each VP must send to cover every /24 once (3 reps, 3-packet
	// pings).
	packetsPerVP := int64(routable24s) * vpsel.RepPingsPerVP * int64(netsim.PingPackets)

	probeSecs := c.Platform.CampaignSeconds(c.SanitizedProbes, int(packetsPerVP))
	anchorSecs := c.Platform.CampaignSeconds(c.SanitizedAnchors, int(packetsPerVP))

	// The authors' 2012 deployment sustained 500 pps per VP.
	secsAt500pps := float64(packetsPerVP) / 500

	toMonths := func(secs float64) string {
		return fmt.Sprintf("%.1f months", secs/(30*24*3600))
	}
	rep := &Report{
		ID:       "deploy",
		Title:    "Deployability of the original VP selection on RIPE Atlas",
		PaperRef: "§5.1.3",
		Header:   []string{"platform", "probing rate", "time to cover all routable /24s"},
		Rows: [][]string{
			{"2012 paper deployment", "500 pps/VP", toMonths(secsAt500pps)},
			{"RIPE Atlas anchors", "200-400 pps", toMonths(anchorSecs)},
			{"RIPE Atlas probes", "4-12 pps", toMonths(probeSecs)},
		},
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("per-VP workload: %.1fM packets (3 reps × 3 packets × %.1fM /24s)",
			float64(packetsPerVP)/1e6, float64(routable24s)/1e6),
		"paper: probes cannot sustain 500 pps for geolocation alone — the original result cannot be replicated on RIPE Atlas")
	return rep
}

// MultiStep evaluates the paper's §7.2.3 future-work suggestion: extending
// the two-step VP selection to multiple rounds and finding the overhead
// minimum.
func MultiStep(ctx *Context) *Report {
	c := ctx.C
	meta, firstStep := ctx.firstStep(10)
	original := vpsel.OriginalOverheadPings(len(c.VPs), len(c.Targets), 10)

	rep := &Report{
		ID:       "multistep",
		Title:    "Multi-round VP selection (two-step generalized)",
		PaperRef: "§7.2.3 (proposed future work)",
		Header:   []string{"rounds", "median error (km)", "measurements", "% of original", "extra API rounds"},
	}
	// One sweep per target answers every rounds value: results[ti][r-2] is
	// the r-round selection. The sweeps share one cover table, which is
	// garbage once they return.
	const maxRounds = 4
	results := make([][]vpsel.MultiStepResult, len(c.Targets))
	oks := make([][]bool, len(c.Targets))
	tab := vpsel.NewCoverTable(c.RepRTT, meta)
	par.For(len(c.Targets), func(ti int) {
		results[ti], oks[ti] = vpsel.MultiStepSweep(c.RepRTT, meta, tab, firstStep, ti, maxRounds, 100)
	})
	for rounds := 2; rounds <= maxRounds; rounds++ {
		errs := make([]float64, len(c.Targets))
		pings := make([]int64, len(c.Targets))
		roundsUsed := make([]int, len(c.Targets))
		par.For(len(c.Targets), func(ti int) {
			errs[ti] = math.NaN()
			res := results[ti][rounds-2]
			pings[ti] = res.Pings
			roundsUsed[ti] = res.Rounds
			if !oks[ti][rounds-2] {
				return
			}
			if est, ok := c.TargetRTT.LocateSubset(ti, []int{res.SelectedVP}, geo.TwoThirdsC); ok {
				errs[ti] = c.ErrorKm(ti, est)
			}
		})
		clean := dropNaN(errs)
		if len(clean) == 0 {
			continue
		}
		var total int64
		for _, p := range pings {
			total += p
		}
		// Index-addressed writes above, ordered reduction here — the par
		// determinism contract (a shared racy max would tear under -race).
		apiRounds := 0
		for _, r := range roundsUsed {
			if r > apiRounds {
				apiRounds = r
			}
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", rounds),
			fmt.Sprintf("%.1f", stats.MustMedian(clean)),
			fmt.Sprintf("%.2fM", float64(total)/1e6),
			fmt.Sprintf("%.1f%%", 100*float64(total)/float64(original)),
			fmt.Sprintf("%d", apiRounds-2),
		})
	}
	rep.Notes = append(rep.Notes,
		"each extra round costs one more measurement API round-trip (minutes), which §7.2.3 argues is acceptable")
	return rep
}

// ShortestPing compares Shortest Ping against CBG over the full VP set —
// the paper states their results are similar (§5.1, 'results with shortest
// ping are similar').
func ShortestPing(ctx *Context) *Report {
	c := ctx.C
	var spErrs []float64
	for ti := range c.Targets {
		if est, ok := c.TargetRTT.ShortestPingSubset(ti, nil); ok {
			spErrs = append(spErrs, c.ErrorKm(ti, est))
		}
	}
	rep := &Report{
		ID:       "shortestping",
		Title:    "Shortest Ping vs CBG, all vantage points",
		PaperRef: "§3 / §5.1 (\"results with shortest ping are similar\")",
		Header:   cdfHeader("technique"),
		Rows: [][]string{
			cdfRow("CBG", compactNaN(ctx.allVPErrors())),
			cdfRow("Shortest Ping", spErrs),
		},
	}
	return rep
}

// Ablations quantifies the design choices DESIGN.md §6 calls out, in
// report form (the bench harness measures their costs).
func Ablations(ctx *Context) *Report {
	c := ctx.C
	rep := &Report{
		ID:       "ablations",
		Title:    "Design-choice ablations",
		PaperRef: "DESIGN.md §6",
		Header:   []string{"ablation", "variant", "median error (km)"},
	}

	// Speed-of-Internet constant for anchor-only CBG (tier 1).
	rows := c.AnchorVPIndices()
	for _, tc := range []struct {
		name  string
		speed float64
	}{
		{"2/3c", geo.TwoThirdsC},
		{"4/9c", geo.FourNinthsC},
	} {
		var errs []float64
		for ti := range c.Targets {
			if est, ok := c.TargetRTT.LocateSubset(ti, rows, tc.speed); ok {
				errs = append(errs, c.ErrorKm(ti, est))
			}
		}
		if len(errs) > 0 {
			rep.Rows = append(rep.Rows, []string{"tier-1 speed of Internet", tc.name,
				fmt.Sprintf("%.1f", stats.MustMedian(errs))})
		}
	}

	// Greedy vs random first step for the two-step selection. The greedy
	// arm is Fig 3b's 10-VP row.
	meta, _ := ctx.firstStep(10)
	random := make([]int, 10)
	for i := range random {
		random[i] = (i * 7919) % len(c.VPs)
	}
	randomErrs := make([]float64, len(c.Targets))
	par.For(len(c.Targets), func(ti int) {
		randomErrs[ti] = math.NaN()
		res, ok := vpsel.TwoStepSelect(c.RepRTT, meta, random, ti)
		if !ok {
			return
		}
		if est, ok := c.TargetRTT.LocateSubset(ti, []int{res.SelectedVP}, geo.TwoThirdsC); ok {
			randomErrs[ti] = c.ErrorKm(ti, est)
		}
	})
	for _, arm := range []struct {
		name string
		errs []float64
	}{
		{"greedy cover", ctx.twoStepErrors(10).errs},
		{"random", dropNaN(randomErrs)},
	} {
		if len(arm.errs) > 0 {
			rep.Rows = append(rep.Rows, []string{"two-step first step", arm.name,
				fmt.Sprintf("%.1f", stats.MustMedian(arm.errs))})
		}
	}
	rep.Notes = append(rep.Notes,
		"delay-aggregation (min vs median D1+D2) and CBG region-filtering ablations are in bench_test.go (BenchmarkAblation*)")
	return rep
}
