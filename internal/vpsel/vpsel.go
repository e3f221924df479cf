// Package vpsel implements the vantage-point selection machinery of the
// million scale replication (§3.1, §5.1):
//
//   - the original algorithm of Hu et al.: probe each target's three /24
//     representatives from every vantage point and keep the k VPs with the
//     lowest RTT to the representatives;
//   - the greedy Earth-coverage selection of a first-step VP subset
//     (maximize the sum of logarithmic distances, as in Metis);
//   - the paper's two-step extension (§5.1.4), which reaches the same
//     accuracy with ~13% of the measurement overhead.
package vpsel

import (
	"math"

	"geoloc/internal/cbg"
	"geoloc/internal/geo"
	"geoloc/internal/par"
	"geoloc/internal/telemetry"
)

// meters holds the package's instrumentation handles, resolved once against
// the global default registry.
var meters = struct {
	selects        *telemetry.Counter
	greedyCovers   *telemetry.Counter
	twoStepSelects *telemetry.Counter
}{
	selects:        telemetry.Default().Counter("vpsel.selects"),
	greedyCovers:   telemetry.Default().Counter("vpsel.greedy_covers"),
	twoStepSelects: telemetry.Default().Counter("vpsel.two_step_selects"),
}

// RepPingsPerVP is how many ping measurements one VP spends probing one
// target's representative set (one ping per representative).
const RepPingsPerVP = 3

// OriginalSelect returns the k vantage points with the lowest median RTT to
// the target's representatives, using the full rep matrix — the million
// scale paper's selection rule. The result is ascending by RTT.
func OriginalSelect(repRTT *cbg.Matrix, target, k int) []int {
	meters.selects.Inc()
	return repRTT.ClosestVPs(target, k)
}

// SelectWithReplacement is OriginalSelect under platform faults: vantage
// points the alive predicate rejects (offline, quarantined by the
// measurement client's circuit breaker, or shed by budget enforcement)
// are skipped and replaced by the next-closest alive VPs, so the
// selection degrades to farther vantage points instead of shrinking. A
// nil predicate selects exactly like OriginalSelect.
func SelectWithReplacement(repRTT *cbg.Matrix, target, k int, alive func(vp int) bool) []int {
	meters.selects.Inc()
	return repRTT.ClosestVPsFiltered(target, k, alive)
}

// OriginalOverheadPings returns the measurement cost of running the
// original algorithm over an entire target set: every VP pings all three
// representatives of every target, plus the selected VPs ping the target.
func OriginalOverheadPings(numVPs, numTargets, selectedPerTarget int) int64 {
	return int64(numVPs)*int64(numTargets)*RepPingsPerVP +
		int64(numTargets)*int64(selectedPerTarget)
}

// GreedyCover selects n vantage points spreading over the Earth: the first
// is the point with the greatest summed log-distance to a sample of the
// others, and each subsequent pick maximizes the summed log-distance to the
// already-selected set. This is the first-step subset of the two-step
// algorithm (§5.1.4, "similar to what has been done in prior work [Metis]").
//
// The picks are prefix-stable: the seed does not depend on n, and each pick
// depends only on the ones before it, so for k ≤ n < len(locs) the k-pick
// cover is exactly the first k picks of the n-pick cover. One cover of the
// largest size a caller needs therefore answers every smaller size. For
// n ≥ len(locs) the answer is the identity (every index in order), which is
// not a greedy order and so is no prefix source.
func GreedyCover(locs []geo.Point, n int) []int {
	meters.greedyCovers.Inc()
	if n <= 0 || len(locs) == 0 {
		return nil
	}
	if n >= len(locs) {
		out := make([]int, len(locs))
		for i := range out {
			out[i] = i
		}
		return out
	}

	tr := make([]geo.Trig, len(locs))
	for i, p := range locs {
		tr[i] = geo.MakeTrig(p)
	}

	// Seed: the location with the greatest summed log-distance to a strided
	// sample (O(V·S) rather than O(V²); the stride keeps it deterministic).
	// Per-candidate sums go into an index-addressed slice; the argmax scans
	// it in index order, so the parallel fan changes nothing.
	stride := len(locs)/97 + 1
	sums := make([]float64, len(locs))
	par.For(len(locs), func(i int) {
		var sum float64
		for j := 0; j < len(locs); j += stride {
			sum += math.Log1p(geo.TrigDistance(tr[i], tr[j]))
		}
		sums[i] = sum
	})
	seed, seedScore := 0, math.Inf(-1)
	for i, sum := range sums {
		if sum > seedScore {
			seed, seedScore = i, sum
		}
	}

	selected := make([]int, 0, n)
	chosen := make([]bool, len(locs))
	// score[i] accumulates Σ log(1+dist(i, s)) over selected s.
	score := make([]float64, len(locs))

	add := func(idx int) {
		selected = append(selected, idx)
		chosen[idx] = true
		par.For(len(locs), func(i int) {
			if !chosen[i] {
				score[i] += math.Log1p(geo.TrigDistance(tr[i], tr[idx]))
			}
		})
	}
	add(seed)
	for len(selected) < n {
		best, bestScore := -1, math.Inf(-1)
		for i := range locs {
			if !chosen[i] && score[i] > bestScore {
				best, bestScore = i, score[i]
			}
		}
		add(best)
	}
	return selected
}

// VPMeta is the AS/city identity of a vantage point, used by the two-step
// algorithm's "one VP per AS/city in the CBG region" rule.
type VPMeta struct {
	AS   int
	City int
}

// TwoStepResult describes one target's two-step selection.
type TwoStepResult struct {
	// SelectedVP is the single chosen vantage point (matrix index).
	SelectedVP int
	// SecondStep lists the VPs (one per AS/city inside the first-step CBG
	// region) that probed the representatives in step two.
	SecondStep []int
	// Pings is the per-target measurement cost: first-step representative
	// pings + second-step representative pings + the final ping to the
	// target from the selected VP.
	Pings int64
}

// TwoStepSelect runs the paper's two-step VP selection for one target:
//
//  1. The firstStep subset probes the representatives; their RTTs give a
//     CBG region for the target.
//  2. One VP per (AS, city) whose location falls inside the region probes
//     the representatives; the VP with the lowest median representative RTT
//     is selected to geolocate the target.
//
// ok is false when no usable selection exists (no responsive first-step
// measurement, or an empty region with no candidate VPs).
func TwoStepSelect(repRTT *cbg.Matrix, meta []VPMeta, firstStep []int, target int) (TwoStepResult, bool) {
	meters.twoStepSelects.Inc()
	res := TwoStepResult{Pings: int64(len(firstStep)) * RepPingsPerVP}

	region := regionFromSubset(repRTT, firstStep, target, geo.TwoThirdsC)
	if len(region.Circles) == 0 {
		return res, false
	}
	candidates := regionCandidates(repRTT, meta, region.Reduced())
	if len(candidates) == 0 {
		// Fall back to the best first-step VP.
		candidates = firstStep
	}
	res.SecondStep = candidates
	res.Pings += int64(len(candidates)) * RepPingsPerVP

	best := lowestRTT(repRTT, candidates, target)
	if best < 0 {
		return res, false
	}
	res.SelectedVP = best
	res.Pings++ // the selected VP pings the target itself
	return res, true
}

// regionCandidates returns one VP per (AS, city) inside the reduced region,
// in matrix order. The region is checked against every VP; precomputed
// circle trig plus the matrix's per-VP trig replace the per-pair
// deg2rad/cos work (the verdicts are bit-identical to red.Contains).
func regionCandidates(repRTT *cbg.Matrix, meta []VPMeta, red geo.Region) []int {
	redTrig := make([]geo.TrigCircle, len(red.Circles))
	for i, c := range red.Circles {
		redTrig[i] = geo.MakeTrigCircle(c)
	}
	type key struct{ as, city int }
	seen := make(map[key]bool)
	var candidates []int
	for vp := range repRTT.VPs {
		pt := repRTT.VPTrig(vp)
		inside := true
		for _, tc := range redTrig {
			if !tc.ContainsTrig(pt) {
				inside = false
				break
			}
		}
		if !inside {
			continue
		}
		k := key{meta[vp].AS, meta[vp].City}
		if seen[k] {
			continue
		}
		seen[k] = true
		candidates = append(candidates, vp)
	}
	return candidates
}

// lowestRTT returns the candidate with the lowest representative RTT to the
// target (the first on ties), or -1 when none has a usable measurement.
func lowestRTT(repRTT *cbg.Matrix, candidates []int, target int) int {
	best, bestRTT := -1, math.Inf(1)
	for _, vp := range candidates {
		rtt := float64(repRTT.RTT[vp][target])
		if math.IsNaN(rtt) || rtt < 0 {
			continue
		}
		if rtt < bestRTT {
			best, bestRTT = vp, rtt
		}
	}
	return best
}

// regionFromSubset builds the CBG constraint region for a target from a VP
// subset of the matrix.
func regionFromSubset(m *cbg.Matrix, subset []int, target int, speed float64) geo.Region {
	var r geo.Region
	for _, vp := range subset {
		rtt := float64(m.RTT[vp][target])
		if math.IsNaN(rtt) || rtt < 0 {
			continue
		}
		r.Add(geo.Circle{Center: m.VPs[vp], RadiusKm: geo.RTTToDistanceKm(rtt, speed)})
	}
	return r
}
