// Package geoloc is a from-scratch Go reproduction of "Replication:
// Towards a Publicly Available Internet Scale IP Geolocation Dataset"
// (Darwich et al., ACM IMC 2023).
//
// It implements the two replicated geolocation systems — the million scale
// vantage-point selection of Hu et al. (IMC 2012) and the street level
// three-tier technique of Wang et al. (NSDI 2011) — together with every
// substrate they need: a deterministic synthetic Internet (topology, delay
// model, RIPE-Atlas-like measurement platform, mapping services, website
// hosting), the paper's sanitization process, simulated commercial
// geolocation databases, and an experiment harness that regenerates every
// table and figure of the paper's evaluation.
//
// The System type is the front door:
//
//	sys := geoloc.NewSystem(geoloc.MediumScale)
//	est, err := sys.LocateCBG(0)              // CBG with all vantage points
//	res := sys.LocateStreetLevel(0)           // the three-tier technique
//	fmt.Println(sys.Report("fig5a").Render()) // reproduce a paper figure
//
// Everything is deterministic given the scale's seed; see DESIGN.md for
// the substitutions made for paper resources that are not publicly
// reproducible (live Internet paths, RIPE Atlas, Nominatim, commercial
// databases).
package geoloc

import (
	"fmt"
	"sort"

	"geoloc/internal/core"
	"geoloc/internal/experiments"
	"geoloc/internal/geo"
	"geoloc/internal/streetlevel"
	"geoloc/internal/telemetry"
	"geoloc/internal/vpsel"
	"geoloc/internal/world"
)

// Scale selects the size of the simulated campaign.
type Scale int

// Available scales. PaperScale matches the paper's datasets (723 targets,
// ~10k probes) and takes tens of seconds to prepare; MediumScale and
// TinyScale trade fidelity for speed.
const (
	TinyScale Scale = iota
	MediumScale
	PaperScale
)

// Config returns the world configuration of a scale.
func (s Scale) Config() world.Config {
	switch s {
	case TinyScale:
		return world.TinyConfig()
	case MediumScale:
		return world.MediumConfig()
	default:
		return world.DefaultConfig()
	}
}

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case TinyScale:
		return "tiny"
	case MediumScale:
		return "medium"
	default:
		return "paper"
	}
}

// Point is a geographic location in decimal degrees.
type Point struct {
	Lat float64
	Lon float64
}

func fromGeo(p geo.Point) Point { return Point{Lat: p.Lat, Lon: p.Lon} }

// Estimate is a geolocation estimate for a target, with its error against
// the simulator's ground truth.
type Estimate struct {
	Target    int
	Location  Point
	ErrorKm   float64
	Technique string
}

// Target describes one geolocation target (a sanitized anchor).
type Target struct {
	Index     int
	Addr      string
	City      string
	Continent string
	Truth     Point
}

// System is a prepared replication campaign: a generated world, sanitized
// inventories, and the bulk RTT matrices, ready to geolocate targets and
// reproduce the paper's experiments.
type System struct {
	campaign *core.Campaign
	street   *streetlevel.Pipeline
	ctx      *experiments.Context
}

// NewSystem generates and prepares a campaign at the given scale. This is
// the expensive step (seconds at MediumScale, tens of seconds at
// PaperScale); everything after it is cheap and deterministic.
func NewSystem(s Scale) *System {
	return NewSystemFromConfig(s.Config(), experiments.DefaultOptions(), nil)
}

// NewSystemFromConfig prepares a campaign from an explicit world
// configuration and experiment options, metering into reg (nil meters
// nothing).
func NewSystemFromConfig(cfg world.Config, opts experiments.Options, reg *telemetry.Registry) *System {
	c := core.NewResilientCampaign(cfg, nil, reg)
	c.BuildMatrices()
	return &System{
		campaign: c,
		street:   streetlevel.New(c),
		ctx:      experiments.NewContextFromCampaign(c, opts),
	}
}

// Campaign exposes the underlying campaign for advanced use (examples use
// it to reach the matrices and platform directly).
func (s *System) Campaign() *core.Campaign { return s.campaign }

// NumTargets returns how many targets the campaign has.
func (s *System) NumTargets() int { return len(s.campaign.Targets) }

// Targets lists the campaign's targets.
func (s *System) Targets() []Target {
	out := make([]Target, len(s.campaign.Targets))
	for i, h := range s.campaign.Targets {
		city := s.campaign.W.CityOf(h)
		out[i] = Target{
			Index:     i,
			Addr:      h.Addr.String(),
			City:      city.Name,
			Continent: city.Continent.Code(),
			Truth:     fromGeo(h.Loc),
		}
	}
	return out
}

// LocateCBG geolocates a target with CBG over all vantage points at the
// conservative 2/3c speed of Internet.
func (s *System) LocateCBG(target int) (Estimate, error) {
	if err := s.checkTarget(target); err != nil {
		return Estimate{}, err
	}
	est, ok := s.campaign.TargetRTT.LocateSubset(target, nil, geo.TwoThirdsC)
	if !ok {
		return Estimate{}, fmt.Errorf("geoloc: CBG region empty for target %d", target)
	}
	return s.estimate(target, est, "cbg"), nil
}

// LocateShortestPing geolocates a target at the lowest-RTT vantage point.
func (s *System) LocateShortestPing(target int) (Estimate, error) {
	if err := s.checkTarget(target); err != nil {
		return Estimate{}, err
	}
	est, ok := s.campaign.TargetRTT.ShortestPingSubset(target, nil)
	if !ok {
		return Estimate{}, fmt.Errorf("geoloc: no responsive vantage point for target %d", target)
	}
	return s.estimate(target, est, "shortest-ping"), nil
}

// LocateWithSelectedVP geolocates a target using only the k vantage points
// the million scale selection algorithm picks (lowest RTT to the target's
// /24 representatives).
func (s *System) LocateWithSelectedVP(target, k int) (Estimate, error) {
	if err := s.checkTarget(target); err != nil {
		return Estimate{}, err
	}
	sel := vpsel.OriginalSelect(s.campaign.RepRTT, target, k)
	if len(sel) == 0 {
		return Estimate{}, fmt.Errorf("geoloc: no representative measurements for target %d", target)
	}
	est, ok := s.campaign.TargetRTT.LocateSubset(target, sel, geo.TwoThirdsC)
	if !ok {
		return Estimate{}, fmt.Errorf("geoloc: selected-VP region empty for target %d", target)
	}
	return s.estimate(target, est, fmt.Sprintf("vpsel-%d", k)), nil
}

// StreetLevelResult is the outcome of the three-tier technique for one
// target, with library-level summaries.
type StreetLevelResult struct {
	Estimate Estimate
	// Method is "landmark" or "cbg" (fallback).
	Method string
	// Landmarks is how many landmarks passed the locally-hosted checks.
	Landmarks int
	// NegativeDelayFrac is the share of landmarks with unusable (negative)
	// D1+D2 delay estimates.
	NegativeDelayFrac float64
	// SimulatedSeconds is the modelled wall-clock time to geolocate.
	SimulatedSeconds float64
}

// LocateStreetLevel runs the full three-tier street level technique.
func (s *System) LocateStreetLevel(target int) (StreetLevelResult, error) {
	if err := s.checkTarget(target); err != nil {
		return StreetLevelResult{}, err
	}
	res := s.street.Geolocate(target)
	return StreetLevelResult{
		Estimate:          s.estimate(target, res.Estimate, "street-level"),
		Method:            res.Method,
		Landmarks:         len(res.Landmarks),
		NegativeDelayFrac: res.NegativeDelayFrac,
		SimulatedSeconds:  res.TimeSeconds,
	}, nil
}

// Report runs one of the paper's experiments by ID ("table1", "fig2a", ...,
// "baseline") and returns its report.
func (s *System) Report(id string) (*experiments.Report, error) {
	for _, r := range experiments.All(s.ctx) {
		if r.ID == id {
			return r, nil
		}
	}
	return nil, fmt.Errorf("geoloc: unknown experiment %q (see ExperimentIDs)", id)
}

// AllReports runs every experiment.
func (s *System) AllReports() []*experiments.Report {
	return experiments.All(s.ctx)
}

// ExperimentIDs lists the available experiment identifiers.
func ExperimentIDs() []string {
	ids := []string{
		"table1", "table2",
		"fig2a", "fig2b", "fig2c",
		"fig3a", "fig3b", "fig3c",
		"fig4", "fig5a", "fig5b", "fig5c",
		"fig6a", "fig6b", "fig6c",
		"fig7", "fig8", "baseline",
		"deploy", "multistep", "shortestping", "ablations",
	}
	sort.Strings(ids)
	return ids
}

func (s *System) checkTarget(target int) error {
	if target < 0 || target >= len(s.campaign.Targets) {
		return fmt.Errorf("geoloc: target %d out of range [0, %d)", target, len(s.campaign.Targets))
	}
	return nil
}

func (s *System) estimate(target int, p geo.Point, technique string) Estimate {
	return Estimate{
		Target:    target,
		Location:  fromGeo(p),
		ErrorKm:   s.campaign.ErrorKm(target, p),
		Technique: technique,
	}
}
