package main

import (
	"crypto/sha256"
	"fmt"

	"geoloc/internal/core"
	"geoloc/internal/experiments"
	"geoloc/internal/geo"
	"geoloc/internal/streetlevel"
	"geoloc/internal/vpsel"
	"geoloc/internal/world"
)

// analysis-suite sizes: one pass over the registry on the Medium world takes
// about four reference seconds.
const (
	analysisSecondsPerPass = 4
	analysisPeelStreet     = 24
	analysisPeelPings      = 200_000
	analysisPeelLocateReps = 20
)

// streetShareIDs are the experiments that consume the street-level run; their
// share of a pass is what ROADMAP item 1 asks about ("what do they recompute").
var streetShareIDs = map[string]bool{
	"fig5a": true, "fig5b": true, "fig5c": true, "fig6a": true, "fig6b": true, "fig6c": true, "baseline": true,
}

func runAnalysisSuite(h *harness) error {
	passes := h.seconds / analysisSecondsPerPass
	if h.tr != nil {
		passes-- // the peels take the place of one pass
	}
	if passes < 2 {
		passes = 2
	}
	registry := experiments.Registry()
	if len(registry) != len(experimentIDs) {
		return fmt.Errorf("experiments.Registry has %d entries, the benchmark lists %d", len(registry), len(experimentIDs))
	}
	for i, e := range registry {
		if e.ID != experimentIDs[i] {
			return fmt.Errorf("experiments.Registry[%d] is %q, the benchmark lists %q", i, e.ID, experimentIDs[i])
		}
	}

	var c *core.Campaign
	if err := h.step("campaign", func() error {
		c = core.NewCampaign(world.MediumConfig())
		return nil
	}); err != nil {
		return err
	}
	if err := h.step("artifact", func() error {
		c.BuildMatrices()
		return nil
	}); err != nil {
		return err
	}

	// pass runs the whole registry on a fresh Context (so the shared
	// street-level run is recomputed) and digests the rendered reports. A
	// measured pass is one round of per-experiment slices, each one latency
	// sample; the warm-up pass is cut into per-experiment set-up steps the
	// same way.
	var reportBytes, reports int
	pass := func(round int, measured bool) [sha256.Size]byte {
		opts := experiments.QuickOptions()
		if h.seed != 0 {
			opts.Seed = h.seed
		}
		ctx := experiments.NewContextFromCampaign(c, opts)
		sum := sha256.New()
		for _, e := range registry {
			if measured {
				h.spanName = "experiments." + e.ID
				h.sliceStart(round, round%2 == 0)
			} else {
				h.stepBegin("warmup")
			}
			rep := e.Run(ctx)
			if measured {
				h.sliceEnd(1, nil)
			} else {
				h.stepEnd()
			}
			if len(rep.Rows) == 0 {
				h.fail(1, "%s produced no rows", e.ID)
			}
			text := rep.Render()
			sum.Write([]byte(text))
			if measured {
				reportBytes += len(text)
				reports++
			}
		}
		var d [sha256.Size]byte
		copy(d[:], sum.Sum(nil))
		return d
	}

	want := pass(-1, false)
	h.beginMeasure("experiments")
	for r := 0; r < passes; r++ {
		if got := pass(r, true); got != want {
			h.fail(len(registry), "pass %d report digest %x differs from warm-up %x", r, got[:8], want[:8])
		}
	}
	h.endMeasure()
	h.artifactBytesPerOp = float64(reportBytes) / float64(reports)
	h.note("report digest sha256=%x passes=%d experiments=%d", want, passes, len(registry))

	// Per-experiment cost and the street-level share, from the slices.
	perExp := make([][]float64, len(registry))
	for i, s := range h.slices {
		e := i % len(registry)
		perExp[e] = append(perExp[e], float64(s.wallNs)*s.k()/1e6)
	}
	var passMs, streetMs float64
	for e, id := range experimentIDs {
		ms := median(perExp[e])
		h.layer["experiments."+id+".ref_ms"] = ms
		passMs += ms
		if streetShareIDs[id] {
			streetMs += ms
		}
	}
	h.layer["experiments.street_share"] = streetMs / passMs
	h.layer["core.new_campaign_s"] = h.stepRefS("campaign")
	h.layer["core.build_matrices_s"] = h.stepRefS("artifact")
	if h.tr != nil {
		peelAnalysis(h, c)
	}
	return nil
}

// peelAnalysis prices the four primitives the experiments are built from.
func peelAnalysis(h *harness, c *core.Campaign) {
	var sink float64
	nT := len(c.Targets)
	h.layer["cbg.locate_us_per_op"] = h.peel("cbg.locate", analysisPeelLocateReps*nT, func() {
		for r := 0; r < analysisPeelLocateReps; r++ {
			for t := 0; t < nT; t++ {
				p, ok := c.TargetRTT.LocateSubset(t, nil, geo.TwoThirdsC)
				if ok {
					sink += p.Lat
				}
			}
		}
	}) / 1e3

	pipe := streetlevel.New(c)
	h.layer["streetlevel.geolocate_ms_per_op"] = h.peel("streetlevel.geolocate", analysisPeelStreet, func() {
		for i := 0; i < analysisPeelStreet; i++ {
			res := pipe.Geolocate(i % nT)
			sink += res.Estimate.Lat
		}
	}) / 1e6

	meta := make([]vpsel.VPMeta, len(c.VPs))
	locs := make([]geo.Point, len(c.VPs))
	for i, vp := range c.VPs {
		meta[i] = vpsel.VPMeta{AS: vp.AS, City: vp.City}
		locs[i] = vp.Reported
	}
	first := vpsel.GreedyCover(locs, 10)
	h.layer["vpsel.two_step_us_per_op"] = h.peel("vpsel.two_step", nT, func() {
		for t := 0; t < nT; t++ {
			if res, ok := vpsel.TwoStepSelect(c.RepRTT, meta, first, t); ok {
				sink += float64(res.SelectedVP)
			}
		}
	}) / 1e3

	h.layer["netsim.ping_us_per_op"] = h.peel("netsim.ping", analysisPeelPings, func() {
		for i := 0; i < analysisPeelPings; i++ {
			rtt, _ := c.Sim.Ping(c.VPs[i%len(c.VPs)], c.Targets[i%nT], uint64(i))
			sink += rtt
		}
	}) / 1e3
	h.note("peel checksum=%.3f", sink)
}
