package experiments

import (
	"fmt"
	"math"

	"geoloc/internal/asclass"
	"geoloc/internal/geo"
	"geoloc/internal/par"
	"geoloc/internal/rhash"
	"geoloc/internal/stats"
	"geoloc/internal/vpsel"
	"geoloc/internal/world"
)

// Table1 reproduces Table 1: the datasets used by the replication.
func Table1(ctx *Context) *Report {
	c := ctx.C
	cities := make(map[int]bool)
	ases := make(map[int]bool)
	for _, t := range c.Targets {
		cities[t.City] = true
		ases[t.AS] = true
	}
	return &Report{
		ID:       "table1",
		Title:    "Datasets used in the replication",
		PaperRef: "Table 1 / §4",
		Header:   []string{"dataset", "value"},
		Rows: [][]string{
			{"replication targets (RIPE Atlas anchors)", fmt.Sprintf("%d", len(c.Targets))},
			{"replication VPs, million scale (probes+anchors)", fmt.Sprintf("%d", len(c.VPs))},
			{"replication VPs, street level (anchors)", fmt.Sprintf("%d", len(c.SanitizedAnchors))},
			{"target cities", fmt.Sprintf("%d", len(cities))},
			{"target ASes", fmt.Sprintf("%d", len(ases))},
			{"anchors removed by sanitizing (§4.3)", fmt.Sprintf("%d", len(c.RemovedAnchors))},
			{"probes removed by sanitizing (§4.3)", fmt.Sprintf("%d", len(c.RemovedProbes))},
			{"targets with padded representatives (§4.1.3)", fmt.Sprintf("%d", len(c.Hitlist.PaddedTargets()))},
		},
	}
}

// Table2 reproduces Table 2: AS categories of probes, anchors, and their
// union, per the CAIDA-style classification.
func Table2(ctx *Context) *Report {
	c := ctx.C
	anchorTally := asclass.NewTally()
	probeTally := asclass.NewTally()
	for _, id := range c.SanitizedAnchors {
		anchorTally.Add(c.W.ASOf(c.W.Host(id)).Cat)
	}
	for _, id := range c.SanitizedProbes {
		probeTally.Add(c.W.ASOf(c.W.Host(id)).Cat)
	}
	both := asclass.NewTally()
	both.Merge(anchorTally)
	both.Merge(probeTally)

	header := []string{"dataset"}
	for _, cat := range asclass.Categories {
		header = append(header, cat.String())
	}
	return &Report{
		ID:       "table2",
		Title:    "AS type of the vantage points",
		PaperRef: "Table 2 / §4.4.1",
		Header:   header,
		Rows: [][]string{
			append([]string{"Anchors"}, anchorTally.Row()...),
			append([]string{"Probes"}, probeTally.Row()...),
			append([]string{"Probes + Anchors"}, both.Row()...),
		},
	}
}

// Fig2a reproduces Fig 2a: the distribution of the median geolocation error
// over random VP subsets of increasing size.
func Fig2a(ctx *Context) *Report {
	c := ctx.C
	rep := &Report{
		ID:       "fig2a",
		Title:    "Number of VPs vs accuracy (random subsets)",
		PaperRef: "Fig 2a / §5.1.1",
		Header:   []string{"subset size", "trials", "min", "p25", "median", "p75", "max"},
	}
	for _, size := range ctx.Opts.Fig2Sizes {
		if size > len(c.VPs) {
			size = len(c.VPs)
		}
		medians := ctx.trialMedians(size, ctx.Opts.Fig2Trials)
		sum, err := stats.Summarize(medians)
		if err != nil {
			continue
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%d", sum.N),
			fmt.Sprintf("%.1f", sum.Min),
			fmt.Sprintf("%.1f", sum.P25),
			fmt.Sprintf("%.1f", sum.Median),
			fmt.Sprintf("%.1f", sum.P75),
			fmt.Sprintf("%.1f", sum.Max),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper: median error keeps decreasing beyond thousands of VPs, down to ~8 km at 10k")
	return rep
}

// trialKey names one random-subset sweep: its subsets are a pure function
// of the size, the trial count and the context's seed.
type trialKey struct{ size, trials int }

// trialMedians runs CBG over `trials` random subsets of the given size and
// returns the per-trial median error, once per context for each (size,
// trials). Callers must not mutate the returned slice.
func (ctx *Context) trialMedians(size, trials int) []float64 {
	return ctx.trials.get(trialKey{size, trials}, func() []float64 { return computeTrialMedians(ctx, size, trials) })
}

// computeTrialMedians is trialMedians' sweep. The work is fanned at
// (trial, target) grain — one locate per index — into an index-addressed
// grid; the per-trial medians are reduced from it in trial order.
func computeTrialMedians(ctx *Context, size, trials int) []float64 {
	c := ctx.C
	nt := len(c.Targets)
	subsets := make([][]int, trials)
	for trial := range subsets {
		st := rhash.New(ctx.Opts.Seed, rhash.HashString("fig2a"), uint64(size), uint64(trial))
		subsets[trial] = randomSubset(st, len(c.VPs), size)
	}
	grid := make([]float64, trials*nt)
	parallelFor(trials*nt, func(i int) {
		trial, ti := i/nt, i%nt
		grid[i] = math.NaN()
		if est, ok := c.TargetRTT.LocateSubset(ti, subsets[trial], geo.TwoThirdsC); ok {
			grid[i] = c.ErrorKm(ti, est)
		}
	})
	medians := make([]float64, 0, trials)
	for trial := 0; trial < trials; trial++ {
		errs := dropNaN(grid[trial*nt : (trial+1)*nt])
		if len(errs) > 0 {
			medians = append(medians, stats.MustMedian(errs))
		}
	}
	return medians
}

// randomSubset draws size distinct indices from [0, n).
func randomSubset(st *rhash.Stream, n, size int) []int {
	if size >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Partial Fisher-Yates over an index array.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < size; i++ {
		j := i + st.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:size]
}

// Fig2b reproduces Fig 2b: the CDF of the median error across subsets of a
// few fixed sizes; the paper's point is how little the distributions vary.
func Fig2b(ctx *Context) *Report {
	rep := &Report{
		ID:       "fig2b",
		Title:    "Accuracy vs subset sizes (median-error spread)",
		PaperRef: "Fig 2b / §5.1.1",
		Header:   []string{"subset size", "trials", "min median", "p50 median", "max median", "spread (max/min)"},
	}
	for _, size := range []int{100, 500, 1000, 2000} {
		if size > len(ctx.C.VPs) {
			continue
		}
		medians := ctx.trialMedians(size, ctx.Opts.Fig2Trials)
		if len(medians) == 0 {
			continue
		}
		s := sortedCopy(medians)
		min, max := s[0], s[len(s)-1]
		spread := math.Inf(1)
		if min > 0 {
			spread = max / min
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%d", len(medians)),
			fmt.Sprintf("%.1f", min),
			fmt.Sprintf("%.1f", stats.MustMedian(medians)),
			fmt.Sprintf("%.1f", max),
			fmt.Sprintf("%.2f", spread),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper: for 100 VPs the median error varies only 191-366 km across subsets — far less than in the original work")
	return rep
}

// Fig2c reproduces Fig 2c: the error of CBG with all VPs versus after
// removing every VP closer than a threshold to each target.
func Fig2c(ctx *Context) *Report {
	c := ctx.C
	rep := &Report{
		ID:       "fig2c",
		Title:    "Error when removing close VPs",
		PaperRef: "Fig 2c / §5.1.1",
		Header:   cdfHeader("VP filter"),
	}

	rep.Rows = append(rep.Rows, cdfRow("all VPs", compactNaN(ctx.allVPErrors())))

	// One VP-distance pass per target serves all four thresholds; the
	// filtered subsets are built in per-worker scratch and the errors land
	// in an index-addressed [threshold][target] grid.
	thresholds := []float64{40, 100, 500, 1000}
	nt := len(c.Targets)
	errs := make([]float64, len(thresholds)*nt)
	type scratch struct {
		dist   []float64
		subset []int
	}
	scr := make([]scratch, par.Workers(nt))
	par.ForWorker(nt, func(w, ti int) {
		s := &scr[w]
		if s.dist == nil {
			s.dist = make([]float64, len(c.VPs))
			s.subset = make([]int, 0, len(c.VPs))
		}
		tt := geo.MakeTrig(c.Targets[ti].Loc)
		for vp := range c.VPs {
			s.dist[vp] = geo.TrigDistance(c.TargetRTT.VPTrig(vp), tt)
		}
		for thi, minDist := range thresholds {
			s.subset = s.subset[:0]
			for vp := range c.VPs {
				if s.dist[vp] > minDist {
					s.subset = append(s.subset, vp)
				}
			}
			subset := s.subset
			if len(subset) == 0 {
				subset = nil // an empty filter falls back to all VPs, as before
			}
			e := math.NaN()
			if est, ok := c.TargetRTT.LocateSubset(ti, subset, geo.TwoThirdsC); ok {
				e = c.ErrorKm(ti, est)
			}
			errs[thi*nt+ti] = e
		}
	})
	for thi, minDist := range thresholds {
		rep.Rows = append(rep.Rows, cdfRow(fmt.Sprintf("VPs > %.0f km", minDist), dropNaN(errs[thi*nt:(thi+1)*nt])))
	}
	rep.Notes = append(rep.Notes,
		"paper: removing VPs closer than 40 km moves the median from 8 km to 120 km and drops the ≤40 km share from 73% to 6%")
	return rep
}

// Fig3a reproduces Fig 3a: the original VP selection algorithm — CBG using
// the 1, 3, and 10 VPs with the lowest RTT to the target's representatives.
func Fig3a(ctx *Context) *Report {
	c := ctx.C
	rep := &Report{
		ID:       "fig3a",
		Title:    "Original VP selection (closest by representative RTT)",
		PaperRef: "Fig 3a / §5.1.2",
		Header:   cdfHeader("selection"),
	}
	for _, k := range []int{1, 3, 10} {
		errs := make([]float64, len(c.Targets))
		parallelFor(len(c.Targets), func(ti int) {
			errs[ti] = math.NaN()
			sel := vpsel.OriginalSelect(c.RepRTT, ti, k)
			if len(sel) == 0 {
				return
			}
			if est, ok := c.TargetRTT.LocateSubset(ti, sel, geo.TwoThirdsC); ok {
				errs[ti] = c.ErrorKm(ti, est)
			}
		})
		rep.Rows = append(rep.Rows, cdfRow(fmt.Sprintf("%d closest VP (RTT)", k), dropNaN(errs)))
	}
	rep.Rows = append(rep.Rows, cdfRow("all VPs", compactNaN(ctx.allVPErrors())))
	rep.Notes = append(rep.Notes,
		"paper: the single closest VP outperforms all alternatives below 40 km (62% ≤10 km vs 52% for all VPs)")
	return rep
}

func dropNaN(v []float64) []float64 {
	out := v[:0]
	for _, x := range v {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

// fig3FirstStepSizes are the first-step subset sizes Fig 3b/3c sweep; the
// last is the largest first step any experiment asks for.
var fig3FirstStepSizes = []int{10, 100, 300, 500, 1000}

// firstStep returns the VPs' AS/city identities and the n-VP greedy
// Earth-covering first step. One cover of the largest size any experiment
// needs is computed per context, and every smaller size is its prefix
// (GreedyCover's picks are prefix-stable); a size at or above the VP
// count gets GreedyCover's identity answer. Callers must not mutate
// either slice.
func (ctx *Context) firstStep(n int) ([]vpsel.VPMeta, []int) {
	ctx.firstStepOnce.Do(func() {
		vps := ctx.C.VPs
		meta := make([]vpsel.VPMeta, len(vps))
		locs := make([]geo.Point, len(vps))
		for i, h := range vps {
			meta[i] = vpsel.VPMeta{AS: h.AS, City: h.City}
			locs[i] = h.Reported
		}
		maxNeeded := fig3FirstStepSizes[len(fig3FirstStepSizes)-1]
		ctx.vpMeta = meta
		ctx.cover = vpsel.GreedyCover(locs, min(maxNeeded, len(vps)-1))
	})
	if n >= len(ctx.vpMeta) {
		all := make([]int, len(ctx.vpMeta))
		for i := range all {
			all[i] = i
		}
		return ctx.vpMeta, all
	}
	return ctx.vpMeta, ctx.cover[:n:n]
}

// twoStepRow is the two-step selection over every target from one
// first-step size: the CBG errors of the located targets in target order,
// and the pings spent.
type twoStepRow struct {
	errs  []float64
	pings int64
}

// twoStepErrors returns the two-step row of the n-VP greedy first step,
// computed once per context for each n. Callers must not mutate errs.
func (ctx *Context) twoStepErrors(n int) twoStepRow {
	return ctx.twoStep.get(n, func() twoStepRow {
		c := ctx.C
		meta, firstStep := ctx.firstStep(n)
		errs := make([]float64, len(c.Targets))
		pings := make([]int64, len(c.Targets))
		parallelFor(len(c.Targets), func(ti int) {
			errs[ti] = math.NaN()
			res, ok := vpsel.TwoStepSelect(c.RepRTT, meta, firstStep, ti)
			pings[ti] = res.Pings
			if !ok {
				return
			}
			if est, ok := c.TargetRTT.LocateSubset(ti, []int{res.SelectedVP}, geo.TwoThirdsC); ok {
				errs[ti] = c.ErrorKm(ti, est)
			}
		})
		var total int64
		for _, p := range pings {
			total += p
		}
		return twoStepRow{errs: dropNaN(errs), pings: total}
	})
}

// Fig3b reproduces Fig 3b: accuracy of the two-step VP selection for
// different first-step subset sizes, against all VPs.
func Fig3b(ctx *Context) *Report {
	rep := &Report{
		ID:       "fig3b",
		Title:    "Two-step VP selection accuracy",
		PaperRef: "Fig 3b / §5.1.4",
		Header:   cdfHeader("first step"),
	}
	rep.Rows = append(rep.Rows, cdfRow("all VPs", compactNaN(ctx.allVPErrors())))
	for _, size := range fig3FirstStepSizes {
		if size <= len(ctx.C.VPs) {
			rep.Rows = append(rep.Rows, cdfRow(fmt.Sprintf("%d VPs", size), ctx.twoStepErrors(size).errs))
		}
	}
	rep.Notes = append(rep.Notes,
		"paper: the two-step algorithm does not degrade performance, even with 10 first-step VPs")
	return rep
}

// Fig3c reproduces Fig 3c: the measurement overhead of the two-step VP
// selection versus the original algorithm.
func Fig3c(ctx *Context) *Report {
	c := ctx.C
	original := vpsel.OriginalOverheadPings(len(c.VPs), len(c.Targets), 10)
	rep := &Report{
		ID:       "fig3c",
		Title:    "Measurement overhead of the two-step VP selection",
		PaperRef: "Fig 3c / §5.1.4",
		Header:   []string{"VPs in first step", "measurements", "% of original"},
	}
	for _, size := range fig3FirstStepSizes {
		if size > len(c.VPs) {
			continue
		}
		p := ctx.twoStepErrors(size).pings
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%.2fM", float64(p)/1e6),
			fmt.Sprintf("%.1f%%", 100*float64(p)/float64(original)),
		})
	}
	rep.Rows = append(rep.Rows, []string{"All", fmt.Sprintf("%.2fM", float64(original)/1e6), "100%"})
	rep.Notes = append(rep.Notes,
		"paper: 500 first-step VPs need 2.88M pings — 13.2% of the original 21.7M")
	return rep
}

// Fig4 reproduces Fig 4: CBG error with all VPs, split by continent.
func Fig4(ctx *Context) *Report {
	c := ctx.C
	rep := &Report{
		ID:       "fig4",
		Title:    "Error per continent",
		PaperRef: "Fig 4 / §5.1.5",
		Header:   cdfHeader("continent"),
	}
	// Per-target verdicts in parallel (the error row is the shared all-VPs
	// baseline; the VP-proximity scan uses precomputed trig), reduced into
	// the per-continent maps in target order.
	allErrs := ctx.allVPErrors()
	close40 := make([]bool, len(c.Targets))
	parallelFor(len(c.Targets), func(ti int) {
		tt := geo.MakeTrig(c.Targets[ti].Loc)
		for vp, h := range c.VPs {
			if h.ID != c.Targets[ti].ID && geo.TrigDistance(c.TargetRTT.VPTrig(vp), tt) <= 40 {
				close40[ti] = true
				break
			}
		}
	})
	perCont := make(map[world.Continent][]float64)
	var haveClose40 = make(map[world.Continent][2]int)
	for ti := range c.Targets {
		ct := c.TargetContinent(ti)
		if !math.IsNaN(allErrs[ti]) {
			perCont[ct] = append(perCont[ct], allErrs[ti])
		}
		counts := haveClose40[ct]
		counts[1]++
		if close40[ti] {
			counts[0]++
		}
		haveClose40[ct] = counts
	}
	for _, ct := range world.AllContinents {
		errs := perCont[ct]
		if len(errs) == 0 {
			continue
		}
		rep.Rows = append(rep.Rows, cdfRow(fmt.Sprintf("%s (%d)", ct, len(errs)), errs))
	}
	for _, ct := range []world.Continent{world.Africa, world.Europe} {
		counts := haveClose40[ct]
		if counts[1] == 0 {
			continue
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf("%s targets with a VP within 40 km: %.0f%% (paper: AF 94%%, EU 99%%)",
			ct, 100*float64(counts[0])/float64(counts[1])))
	}
	rep.Notes = append(rep.Notes,
		"paper: Africa performs better than Europe overall despite far fewer VPs")
	return rep
}
