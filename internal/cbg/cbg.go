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
	r := Constraints(ms, speedKmPerMs)
	if len(r.Circles) == 0 {
		return geo.Point{}, ErrNoMeasurements
	}
	c, ok := r.Centroid()
	if !ok {
		return geo.Point{}, ErrEmptyRegion
	}
	return c, nil
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
