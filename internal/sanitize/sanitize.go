// Package sanitize implements the paper's RIPE Atlas geolocation sanitizing
// process (§4.3): count speed-of-Internet (SOI) violations in meshed anchor
// measurements and iteratively remove the worst offender until no anchor
// violates; then remove probes whose pings to the trusted anchors violate
// SOI. At paper scale this removes 9 anchors and 96 probes.
package sanitize

import (
	"sort"

	"geoloc/internal/atlas"
	"geoloc/internal/geo"
	"geoloc/internal/netsim"
	"geoloc/internal/par"
	"geoloc/internal/world"
)

// violates reports whether a measured RTT is physically impossible for the
// *reported* locations of the endpoints at 2/3c. A truthfully-geolocated
// pair can never violate; a corrupted endpoint usually does against peers
// near its true location.
func violates(rttMs float64, a, b geo.Point) bool {
	return geo.Distance(a, b) > geo.RTTToDistanceKm(rttMs, geo.TwoThirdsC)
}

// AnchorResult is the outcome of the anchor mesh sanitization.
type AnchorResult struct {
	// Kept and Removed partition the input anchors (IDs, input order for
	// Kept; removal order for Removed).
	Kept    []int
	Removed []int
	// InitialViolations maps each anchor to its violation count in the
	// first iteration, before any removal.
	InitialViolations map[int]int
	// MeshHoles counts anchor pairs whose mesh measurement got no answer.
	// Under fault injection the mesh has holes; the analysis tolerates
	// them (an unmeasured pair simply contributes no violation), and the
	// count reports how partial the mesh was.
	MeshHoles int
}

// Anchors runs the meshed-anchor SOI analysis: every anchor pings every
// other anchor once, violations are counted per anchor, and the anchor with
// the most violations is removed iteratively until the mesh is clean.
func Anchors(p *atlas.Platform, anchorIDs []int) AnchorResult {
	n := len(anchorIDs)
	hosts := make([]*world.Host, n)
	for i, id := range anchorIDs {
		hosts[i] = p.W.Host(id)
	}

	// Measure the mesh once; each ordered pair is one measurement. Rows
	// fan across the analysis pool: the pair (i, j>i) is owned by worker
	// row i alone (both mirror cells), so writes never overlap; ping
	// jitter is keyed by (src, dst, salt), and the hole counts reduce in
	// row order — the mesh is bit-identical at any worker count.
	viol := make([][]bool, n)
	for i := range viol {
		viol[i] = make([]bool, n)
	}
	rowHoles := make([]int, n)
	par.For(n, func(i int) {
		for j := i + 1; j < n; j++ {
			rtt, ok := p.Ping(hosts[i], hosts[j], saltMesh)
			if !ok {
				rowHoles[i]++
				continue
			}
			if violates(rtt, hosts[i].Reported, hosts[j].Reported) {
				viol[i][j] = true
				viol[j][i] = true
			}
		}
	})
	holes := 0
	for _, h := range rowHoles {
		holes += h
	}

	counts := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if viol[i][j] {
				counts[i]++
			}
		}
	}
	res := AnchorResult{InitialViolations: make(map[int]int, n), MeshHoles: holes}
	for i, id := range anchorIDs {
		res.InitialViolations[id] = counts[i]
	}

	removed := make([]bool, n)
	for {
		worst, worstCount := -1, 0
		for i := 0; i < n; i++ {
			if !removed[i] && counts[i] > worstCount {
				worst, worstCount = i, counts[i]
			}
		}
		if worst < 0 {
			break
		}
		removed[worst] = true
		res.Removed = append(res.Removed, anchorIDs[worst])
		// Update the counts of anchors that shared violations with it.
		for j := 0; j < n; j++ {
			if viol[worst][j] && !removed[j] {
				counts[j]--
			}
		}
		counts[worst] = 0
	}
	for i, id := range anchorIDs {
		if !removed[i] {
			res.Kept = append(res.Kept, id)
		}
	}
	return res
}

// ProbeResult is the outcome of the probe sanitization.
type ProbeResult struct {
	Kept    []int
	Removed []int
	// Violations maps each removed probe to its violation count against the
	// trusted anchors.
	Violations map[int]int
	// Holes counts probe→anchor measurements that got no answer (tolerated
	// exactly like anchor-mesh holes).
	Holes int
}

// Probes pings every anchor from every probe and removes probes with any
// SOI violation against the sanitized anchors. Because anchors are trusted
// at this stage, violations unambiguously implicate the probe, so a single
// pass suffices (the iterative removal of §4.3 degenerates to it).
func Probes(p *atlas.Platform, probeIDs, trustedAnchorIDs []int) ProbeResult {
	res := ProbeResult{Violations: make(map[int]int)}
	anchors := make([]*world.Host, len(trustedAnchorIDs))
	for i, id := range trustedAnchorIDs {
		anchors[i] = p.W.Host(id)
	}
	// Per-probe verdicts fan across the analysis pool into index-addressed
	// slices; the Kept/Removed partition reduces in probe order afterward.
	// They walk the probes in place order (netsim.PlaceOrder), so a
	// worker's consecutive probes share their route skeletons.
	counts := make([]int, len(probeIDs))
	probeHoles := make([]int, len(probeIDs))
	probes := make([]*world.Host, len(probeIDs))
	for i, id := range probeIDs {
		probes[i] = p.W.Host(id)
	}
	order := netsim.PlaceOrder(probes)
	par.For(len(order), func(k int) {
		pi := order[k]
		probe := probes[pi]
		for _, a := range anchors {
			rtt, ok := p.Ping(probe, a, saltProbeCheck)
			if !ok {
				probeHoles[pi]++
				continue
			}
			if violates(rtt, probe.Reported, a.Reported) {
				counts[pi]++
			}
		}
	})
	for pi, pid := range probeIDs {
		res.Holes += probeHoles[pi]
		if counts[pi] > 0 {
			res.Removed = append(res.Removed, pid)
			res.Violations[pid] = counts[pi]
		} else {
			res.Kept = append(res.Kept, pid)
		}
	}
	sort.Ints(res.Removed)
	return res
}

// Salt values reserving measurement-randomness namespaces for the two
// sanitization campaigns.
const (
	saltMesh       = 0x5a17_0001
	saltProbeCheck = 0x5a17_0002
)
