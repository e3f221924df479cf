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
// Both run over a Matrix of RTTs (ShortestPingSubset, LocateSubset);
// ShortestPing also takes one target's measurement list, the view the
// streamed dataset compile works from.
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
