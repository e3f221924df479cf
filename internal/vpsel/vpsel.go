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

// coverBlock is how many points one unit of a fanned cover's row work
// spans, so a cheap pair source is not swamped by per-point call overhead.
const coverBlock = 64

// greedyCover is GreedyCover's loop over p's points, whatever the pair
// source. fan spreads each row of work across the par pool in coverBlock
// spans; a table cover runs its rows as plain loops, since its pairs are
// lookups and its caller already fans out, and it allocates only its
// state, its score buffer and the answer, whatever n is.
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

	c := &coverRun{p: p, score: make([]float64, m), pick: -1}
	rows := func() { c.rows(0, m) }
	if fan {
		blocks := (m + coverBlock - 1) / coverBlock
		span := func(b int) { c.rows(b*coverBlock, min(b*coverBlock+coverBlock, m)) }
		rows = func() { par.For(blocks, span) }
	}

	// Seed: the location with the greatest summed log-distance to a strided
	// sample (O(V·S) rather than O(V²); the stride keeps it deterministic).
	// The argmax scans the sums in index order.
	rows()
	selected := make([]int, 0, n)
	pick := max(c.argmax(), 0) // point 0 when every sum is NaN
	clear(c.score)
	for {
		selected = append(selected, pick)
		c.score[pick], c.pick = chosen, pick
		if len(selected) == n {
			return selected
		}
		rows()
		pick = c.argmax()
	}
}

// chosen marks a picked point's score: every other score is a sum of
// log1p values, never −Inf, so the argmax passes it over.
var chosen = math.Inf(-1)

// coverRun is one greedy cover's state. Before the seed is picked (pick
// −1) score[i] is i's summed log-distance to the strided sample; after,
// it accumulates Σ log(1+dist(i, s)) over the selected s, and a selected
// point's score is chosen.
type coverRun struct {
	p     coverPairs
	score []float64
	pick  int
}

// rows brings the scores of points [lo, hi) up to date: the seed sums, or
// the latest pick's term added to every unselected point.
func (c *coverRun) rows(lo, hi int) {
	m := len(c.score)
	if c.pick < 0 {
		stride := m/97 + 1
		for i := lo; i < hi; i++ {
			var sum float64
			for j := 0; j < m; j += stride {
				sum += c.p.logDist(i, j)
			}
			c.score[i] = sum
		}
		return
	}
	for i := lo; i < hi; i++ {
		if c.score[i] != chosen {
			c.score[i] += c.p.logDist(i, c.pick)
		}
	}
}

// argmax returns the first point with the highest score.
func (c *coverRun) argmax() int {
	best, bestScore := -1, math.Inf(-1)
	for i, s := range c.score {
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
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
// first. Only the VPs inside tcs[0]'s latitude band are tested at all
// (geo.TrigCircle.LatBand drops no VP ContainsTrig accepts); with no
// circle the band is every latitude. The hits are marked in a VP bitset
// (on the stack up to hitWords words) and deduplicated in VP order through
// a metaSet sized to the hit count, so the answer is the full scan's
// whatever the band's order, and a call makes two allocations: the set and
// the candidate slice.
func regionCandidates(repRTT *cbg.Matrix, meta []VPMeta, tcs []geo.TrigCircle) []int {
	var stack [hitWords]uint64
	var hits []uint64
	if words := (len(repRTT.VPs) + 63) / 64; words <= hitWords {
		hits = stack[:words]
	} else {
		hits = make([]uint64, words)
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	if len(tcs) > 0 {
		lo, hi = tcs[0].LatBand()
	}
	for _, vp := range repRTT.LatBand(lo, hi) {
		markHit(repRTT, tcs, hits, int(vp))
	}
	n := 0
	for _, word := range hits {
		n += bits.OnesCount64(word)
	}
	if n == 0 {
		return nil
	}
	seen := newMetaSet(n)
	candidates := make([]int, 0, n)
	for w, word := range hits {
		for word != 0 {
			vp := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if seen.add(meta, vp) {
				candidates = append(candidates, vp)
			}
		}
	}
	return candidates
}

// hitWords is the largest VP bitset regionCandidates keeps on the stack:
// 16,384 VPs in 2 KiB.
const hitWords = 256

// markHit sets vp's bit in hits when every circle of tcs contains it.
func markHit(repRTT *cbg.Matrix, tcs []geo.TrigCircle, hits []uint64, vp int) {
	pt := repRTT.VPTrig(vp)
	for i := range tcs {
		if !tcs[i].ContainsTrig(pt) {
			return
		}
	}
	hits[vp>>6] |= 1 << (vp & 63)
}

// metaSet is a set of (AS, city) keys for deduplicating VPs: an
// open-addressing table of VP indices plus one (0 is an empty slot),
// probed linearly from a hash of the VP's packed key and at most half
// full. A slot's key is read back through meta, so keys compare exactly
// whatever their values.
type metaSet struct {
	slots []int32
	shift uint
}

// newMetaSet returns a set with room for n keys.
func newMetaSet(n int) metaSet {
	size, shift := 8, uint(61)
	for size < 2*n {
		size, shift = size<<1, shift-1
	}
	return metaSet{slots: make([]int32, size), shift: shift}
}

// add inserts meta[vp] and reports whether the set lacked it.
func (s *metaSet) add(meta []VPMeta, vp int) bool {
	k := meta[vp]
	mask := len(s.slots) - 1
	i := int((uint64(k.AS)<<32 ^ uint64(k.City)) * 0x9e3779b97f4a7c15 >> s.shift)
	for ; ; i = (i + 1) & mask {
		switch v := s.slots[i]; {
		case v == 0:
			s.slots[i] = int32(vp + 1)
			return true
		case meta[v-1] == k:
			return false
		}
	}
}

// lowestRTT returns the candidate with the lowest representative RTT to the
// target (the first on ties), or -1 when none has a usable measurement.
func lowestRTT(repRTT *cbg.Matrix, candidates []int, target int) int {
	best, bestRTT := -1, float32(math.Inf(1))
	col := repRTT.Column(target)
	for _, vp := range candidates {
		if rtt := col[vp]; !cbg.IsUnresponsive(rtt) && rtt < bestRTT {
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
	col := m.Column(target)
	for _, vp := range subset {
		if rtt := col[vp]; !cbg.IsUnresponsive(rtt) {
			sm.AddTrig(m.VPs[vp], m.VPTrig(vp), geo.RTTToDistanceKm(float64(rtt), speed))
		}
	}
	sm.Reduce()
	return sm.KeptTrig(dst)
}
