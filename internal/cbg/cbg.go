// Package cbg implements the two classic latency-based geolocation
// techniques both replicated papers build on (§3 of the paper):
//
//   - Shortest Ping: map the target to the vantage point with the lowest
//     RTT.
//   - Constraint-Based Geolocation (CBG, Gueye et al.): convert each RTT
//     into a maximum distance at a chosen speed-of-Internet constant, and
//     estimate the target as the centroid of the intersection of the
//     resulting disks.
//
// Vantage-point locations are always the platform-reported ones — after
// sanitization those match the true locations for all surviving hosts.
package cbg

import (
	"errors"
	"math"

	"geoloc/internal/geo"
)

// Measurement is one vantage point's RTT to the target.
type Measurement struct {
	// VP is the vantage point's (reported) location.
	VP geo.Point
	// RTTMs is the measured round-trip time. Negative values mark
	// unresponsive measurements and are ignored.
	RTTMs float64
}

// ErrNoMeasurements is returned when no usable measurement was supplied.
var ErrNoMeasurements = errors.New("cbg: no usable measurements")

// ErrEmptyRegion is returned when the constraint disks have an empty
// intersection — in practice this means the speed constant was too
// aggressive for this target (the paper hit this for 5 targets with 4/9c,
// §5.2.1).
var ErrEmptyRegion = errors.New("cbg: constraint region is empty")

// Constraints converts measurements into a CBG constraint region at the
// given propagation speed (km/ms). Unresponsive measurements are skipped.
func Constraints(ms []Measurement, speedKmPerMs float64) geo.Region {
	var r geo.Region
	for _, m := range ms {
		if m.RTTMs < 0 || math.IsNaN(m.RTTMs) {
			continue
		}
		r.Add(geo.Circle{Center: m.VP, RadiusKm: geo.RTTToDistanceKm(m.RTTMs, speedKmPerMs)})
	}
	return r
}

// Locate runs CBG: it returns the centroid of the constraint intersection.
func Locate(ms []Measurement, speedKmPerMs float64) (geo.Point, error) {
	p, _, err := LocateWithCoverage(ms, speedKmPerMs)
	return p, err
}

// Coverage reports how much of a requested measurement set actually
// contributed constraints to an estimate. Under fault injection a target
// can be located from a fraction of the vantage points that probed it;
// the fraction is the signal consumers use to judge how much to trust
// the estimate.
type Coverage struct {
	// Used counts measurements that produced a constraint; Requested is
	// the size of the measurement set asked for.
	Used, Requested int
}

// LocateWithCoverage runs CBG and additionally reports how many of the
// supplied measurements were usable: the estimate intersects only the
// constraints it actually got, and the caller learns how partial the
// data was. The coverage is valid even when an error is returned.
func LocateWithCoverage(ms []Measurement, speedKmPerMs float64) (geo.Point, Coverage, error) {
	r := Constraints(ms, speedKmPerMs)
	cov := Coverage{Used: len(r.Circles), Requested: len(ms)}
	if len(r.Circles) == 0 {
		return geo.Point{}, cov, ErrNoMeasurements
	}
	c, ok := r.Centroid()
	if !ok {
		return geo.Point{}, cov, ErrEmptyRegion
	}
	return c, cov, nil
}

// LocateWithFallback runs CBG at each speed in order and returns the first
// estimate whose region is non-empty. This mirrors the paper's handling of
// the street level technique's tier 1: 4/9c first, 2/3c when the faster
// constant leaves no intersection.
func LocateWithFallback(ms []Measurement, speeds ...float64) (geo.Point, error) {
	var lastErr error = ErrNoMeasurements
	for _, sp := range speeds {
		p, err := Locate(ms, sp)
		if err == nil {
			return p, nil
		}
		lastErr = err
	}
	return geo.Point{}, lastErr
}

// ShortestPing maps the target to the vantage point with the lowest RTT.
func ShortestPing(ms []Measurement) (geo.Point, error) {
	best := -1
	for i, m := range ms {
		if m.RTTMs < 0 || math.IsNaN(m.RTTMs) {
			continue
		}
		if best < 0 || m.RTTMs < ms[best].RTTMs {
			best = i
		}
	}
	if best < 0 {
		return geo.Point{}, ErrNoMeasurements
	}
	return ms[best].VP, nil
}

// Region is re-exported for callers needing the raw constraint region.
type Region = geo.Region
