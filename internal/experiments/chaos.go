package experiments

import (
	"fmt"
	"math"

	"geoloc/internal/core"
	"geoloc/internal/faults"
	"geoloc/internal/geo"
	"geoloc/internal/stats"
	"geoloc/internal/streetlevel"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

// ChaosProfiles is the fault-intensity sweep of the chaos experiment,
// ordered from no faults to hostile. The ordering is load-bearing: the
// degradation table (and its regression test) expects matrix coverage to
// be non-increasing along it.
func ChaosProfiles() []*faults.Profile {
	return []*faults.Profile{
		faults.None(),
		faults.Realistic().Scale(0.5),
		faults.Realistic(),
		faults.Degraded(),
		faults.Hostile(),
	}
}

// ChaosRow is one measured point of the fault-intensity sweep.
type ChaosRow struct {
	Profile *faults.Profile
	// Coverage is the fraction of off-diagonal target-matrix cells that
	// hold a usable RTT after retries.
	Coverage float64
	// MedianErrKm is the CBG median error over targets CBG could locate;
	// Located is how many it could.
	MedianErrKm float64
	Located     int
	// Client resilience counters for the whole campaign.
	Retries, Failures, Quarantines int64
	CreditsSpent                   int64
	CampaignSec                    float64
	// Street-level degradation under auxiliary-service faults, over
	// chaosStreetTargets targets: mapping queries the service failed,
	// stale-coordinate landmark resolutions, and how many targets still
	// resolved via a landmark versus falling back to the CBG seed.
	LookupFailures int64
	StaleSites     int64
	StreetLandmark int
	StreetCBG      int
}

// chaosStreetTargets is how many targets each profile's street-level
// degradation probe geolocates (capped by the world's target count).
const chaosStreetTargets = 6

// chaosCampaign runs one full resilient campaign under the profile,
// metering into reg, and measures it. The world config is fixed so every
// row measures the same world under different fault intensities.
func chaosCampaign(cfg world.Config, prof *faults.Profile, reg *telemetry.Registry) ChaosRow {
	c := core.NewResilientCampaign(cfg, prof, reg)
	c.BuildMatrices()

	row := ChaosRow{Profile: prof}

	cells, filled := 0, 0
	for vp := range c.TargetRTT.RTT {
		src := c.VPs[vp]
		for t := range c.TargetRTT.RTT[vp] {
			if src.ID == c.Targets[t].ID {
				continue
			}
			cells++
			if rtt := c.TargetRTT.RTT[vp][t]; rtt == rtt && rtt >= 0 {
				filled++
			}
		}
	}
	if cells > 0 {
		row.Coverage = float64(filled) / float64(cells)
	}

	var errs []float64
	for t := range c.Targets {
		est, ok := c.TargetRTT.LocateSubset(t, nil, geo.TwoThirdsC)
		if !ok {
			continue
		}
		errs = append(errs, c.ErrorKm(t, est))
	}
	row.Located = len(errs)
	if len(errs) > 0 {
		row.MedianErrKm = stats.MustMedian(errs)
	} else {
		row.MedianErrKm = math.NaN()
	}

	cs := c.Client.Stats()
	row.Retries = cs.Retries
	row.Failures = cs.Failures
	row.Quarantines = cs.Quarantines
	row.CreditsSpent = cs.CreditsSpent
	row.CampaignSec = cs.CampaignSec

	// Street-level probe: the three-tier technique over a handful of
	// targets, with the mapping/web services degraded by the same profile.
	// The point is the failure tabulation, not accuracy — the pipeline
	// must fall back tier by tier, never error.
	sl := streetlevel.New(c)
	n := chaosStreetTargets
	if n > len(c.Targets) {
		n = len(c.Targets)
	}
	for t := 0; t < n; t++ {
		res := sl.Geolocate(t)
		if res.Method == "landmark" {
			row.StreetLandmark++
		} else {
			row.StreetCBG++
		}
	}
	row.LookupFailures = sl.Map.LookupFailures()
	row.StaleSites = sl.Web.StaleSites()
	return row
}

// ChaosSweep measures every profile of ChaosProfiles against one world
// config, every campaign metering into reg (nil meters nothing), and
// returns the rows in sweep order.
func ChaosSweep(cfg world.Config, reg *telemetry.Registry) []ChaosRow {
	profs := ChaosProfiles()
	rows := make([]ChaosRow, len(profs))
	// Campaigns are independent (each builds its own world and platform),
	// so the sweep runs them concurrently; each campaign's internal
	// matrix build is itself parallel, so the speedup is modest but free.
	parallelFor(len(profs), func(i int) {
		rows[i] = chaosCampaign(cfg, profs[i], reg)
	})
	return rows
}

// Chaos sweeps fault intensity over a dedicated small world and reports
// how the pipeline degrades: matrix coverage, CBG accuracy, retry and
// failure counts, credit overhead, and the simulated campaign duration.
// It always runs on the tiny world — it rebuilds and re-measures the
// world once per profile, which at paper scale would dwarf every other
// experiment — so the table reads as degradation shape, not as a
// paper-scale accuracy claim.
func Chaos(ctx *Context) *Report {
	rep := &Report{
		ID:       "chaos",
		Title:    "Pipeline degradation under injected platform faults",
		PaperRef: "robustness extension (no paper artifact)",
		Header: []string{"profile", "coverage", "located", "median(km)",
			"retries", "failures", "quarantines", "credits", "campaign(h)",
			"lookupfail", "stale", "street(lm/cbg)"},
	}
	var reg *telemetry.Registry // ctx is read for nothing else and may be nil
	if ctx != nil {
		reg = ctx.C.Metrics
	}
	rows := ChaosSweep(world.TinyConfig(), reg)
	var base float64
	for i, r := range rows {
		med := "-"
		if !math.IsNaN(r.MedianErrKm) {
			med = fmt.Sprintf("%.1f", r.MedianErrKm)
		}
		rep.Rows = append(rep.Rows, []string{
			r.Profile.Name,
			fmt.Sprintf("%.1f%%", 100*r.Coverage),
			fmt.Sprintf("%d", r.Located),
			med,
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.Failures),
			fmt.Sprintf("%d", r.Quarantines),
			fmt.Sprintf("%d", r.CreditsSpent),
			fmt.Sprintf("%.1f", r.CampaignSec/3600),
			fmt.Sprintf("%d", r.LookupFailures),
			fmt.Sprintf("%d", r.StaleSites),
			fmt.Sprintf("%d/%d", r.StreetLandmark, r.StreetCBG),
		})
		if i == 0 {
			base = r.MedianErrKm
		}
	}
	if base > 0 {
		for _, r := range rows[1:] {
			if !math.IsNaN(r.MedianErrKm) {
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"%s: median error %.2fx fault-free", r.Profile.Name, r.MedianErrKm/base))
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"sweep runs on the tiny world regardless of -scale; rows share one world config")
	return rep
}
