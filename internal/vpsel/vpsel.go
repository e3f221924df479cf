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
	"math/bits"

	"geoloc/internal/cbg"
	"geoloc/internal/geo"
	"geoloc/internal/par"
)

// RepPingsPerVP is how many ping measurements one VP spends probing one
// target's representative set (one ping per representative).
const RepPingsPerVP = 3

// OriginalSelect returns the k vantage points with the lowest median RTT to
// the target's representatives, using the full rep matrix — the million
// scale paper's selection rule. The result is ascending by RTT.
func OriginalSelect(repRTT *cbg.Matrix, target, k int) []int {
	return repRTT.ClosestVPs(target, k)
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
	tr := make([]geo.Trig, len(locs))
	for i, p := range locs {
		tr[i] = geo.MakeTrig(p)
	}
	return greedyCover(coverPairs{tr: tr}, n, true)
}

// coverBlock is how many points one unit of a cover's row work spans, so
// a cheap pair source is not swamped by per-point call overhead.
const coverBlock = 64

// greedyCover is GreedyCover's loop over p's points, whatever the pair
// source. fan spreads each row of work across the par pool; a table cover
// runs inline, since its pairs are lookups and its caller already fans out.
// The sums and scores are index-addressed and accumulate in pick order, so
// neither the source nor the fan changes a bit of the answer.
func greedyCover(p coverPairs, n int, fan bool) []int {
	m := len(p.tr)
	if n <= 0 || m == 0 {
		return nil
	}
	if n >= m {
		out := make([]int, m)
		for i := range out {
			out[i] = i
		}
		return out
	}

	// rows runs f over [0, m) in coverBlock spans.
	blocks := (m + coverBlock - 1) / coverBlock
	rows := func(f func(lo, hi int)) {
		span := func(b int) { f(b*coverBlock, min(b*coverBlock+coverBlock, m)) }
		if fan {
			par.For(blocks, span)
			return
		}
		for b := 0; b < blocks; b++ {
			span(b)
		}
	}

	// Seed: the location with the greatest summed log-distance to a strided
	// sample (O(V·S) rather than O(V²); the stride keeps it deterministic).
	// The argmax scans the sums in index order.
	stride := m/97 + 1
	sums := make([]float64, m)
	rows(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var sum float64
			for j := 0; j < m; j += stride {
				sum += p.logDist(i, j)
			}
			sums[i] = sum
		}
	})
	seed, seedScore := 0, math.Inf(-1)
	for i, sum := range sums {
		if sum > seedScore {
			seed, seedScore = i, sum
		}
	}

	selected := make([]int, 0, n)
	chosen := make([]bool, m)
	// score[i] accumulates Σ log(1+dist(i, s)) over selected s.
	score := make([]float64, m)

	add := func(idx int) {
		selected = append(selected, idx)
		chosen[idx] = true
		rows(func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if !chosen[i] {
					score[i] += p.logDist(i, idx)
				}
			}
		})
	}
	add(seed)
	for len(selected) < n {
		best, bestScore := -1, math.Inf(-1)
		for i := range score {
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
	res := TwoStepResult{Pings: int64(len(firstStep)) * RepPingsPerVP}

	var buf [8]geo.TrigCircle
	region := reducedRegion(repRTT, firstStep, target, geo.TwoThirdsC, buf[:0])
	if len(region) == 0 {
		return res, false
	}
	candidates := regionCandidates(repRTT, meta, region)
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

// regionCandidates returns one VP per (AS, city) inside the reduced
// region — the first in matrix order that every circle contains. tcs is
// reducedRegion's answer, so tcs[0] is the tightest circle and is tested
// first. On a sealed matrix only the VPs inside tcs[0]'s latitude band
// are tested at all (geo.TrigCircle.LatBand drops no VP ContainsTrig
// accepts); an unsealed one has no latitude order and is scanned whole.
// The hits are marked in a VP bitset and deduplicated in VP order, so the
// answer is the full scan's.
func regionCandidates(repRTT *cbg.Matrix, meta []VPMeta, tcs []geo.TrigCircle) []int {
	hits := make([]uint64, (len(repRTT.VPs)+63)/64)
	mark := func(vp int) {
		pt := repRTT.VPTrig(vp)
		for i := range tcs {
			if !tcs[i].ContainsTrig(pt) {
				return
			}
		}
		hits[vp>>6] |= 1 << (vp & 63)
	}
	var band []int32
	banded := false
	if len(tcs) > 0 {
		band, banded = repRTT.LatBand(tcs[0].LatBand())
	}
	if banded {
		for _, vp := range band {
			mark(int(vp))
		}
	} else {
		for vp := range repRTT.VPs {
			mark(vp)
		}
	}
	seen := make(map[VPMeta]bool)
	var candidates []int
	for w, word := range hits {
		for word != 0 {
			vp := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if !seen[meta[vp]] {
				seen[meta[vp]] = true
				candidates = append(candidates, vp)
			}
		}
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

// reducedRegion appends to dst the reduced CBG constraint region of a
// target from a VP subset of the matrix: Region.Reduced of the subset's
// circles, bit for bit, as TrigCircles. The reduction is geo.Sampler's,
// which decides containment with TrigCuts over the matrix's cached VP trig
// instead of a haversine per circle. It appends nothing when no subset VP
// has a usable measurement.
func reducedRegion(m *cbg.Matrix, subset []int, target int, speed float64, dst []geo.TrigCircle) []geo.TrigCircle {
	sm := geo.GetSampler()
	defer geo.PutSampler(sm)
	for _, vp := range subset {
		rtt := float64(m.RTT[vp][target])
		if math.IsNaN(rtt) || rtt < 0 {
			continue
		}
		sm.AddTrig(m.VPs[vp], m.VPTrig(vp), geo.RTTToDistanceKm(rtt, speed))
	}
	sm.Reduce()
	return sm.KeptTrig(dst)
}
