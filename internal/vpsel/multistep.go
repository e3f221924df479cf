package vpsel

import (
	"geoloc/internal/cbg"
	"geoloc/internal/geo"
)

// MultiStepResult describes one target's multi-round selection (§7.2.3 of
// the paper: "this principle could be easily extended to multiple rounds
// instead of two, and attain a number of rounds for which the measurement
// overhead is minimum").
type MultiStepResult struct {
	// SelectedVP is the final chosen vantage point.
	SelectedVP int
	// Pings is the total measurement cost across all rounds.
	Pings int64
	// Rounds is how many probing rounds actually ran (the sweep stops
	// early once the candidate set is small enough to probe outright).
	Rounds int
}

// MultiStepSweep generalizes TwoStepSelect to an arbitrary number of
// rounds. Every round probes the current subset's representatives and
// computes a CBG region; intermediate rounds keep only an Earth-covering
// sample (of size interBudget) of the one-VP-per-AS/city candidates inside
// the region, and the final round probes the remaining candidates in full
// and picks the lowest-RTT VP.
//
// More rounds trade measurement overhead for wall-clock time: each round is
// one more platform API round-trip (§7.2.3 notes this costs only minutes
// and geolocation does not change quickly).
//
// tab is NewCoverTable(repRTT, meta); the intermediate samples read their
// pair values from it, and a caller sweeping many targets builds it once.
//
// The sweep answers every rounds value in 2..maxRounds with one walk:
// out[i], ok[i] is the selection with i+2 rounds, so the last is the one
// with maxRounds. Every rounds value takes the same steps until it
// finishes, and rounds = R finishes at step min(R−2, the first step whose
// candidates fit interBudget), so each step's region, candidate scan and
// Earth-covering sample is computed once for all of them. An empty region
// ends every rounds value still open, unselected. maxRounds < 2 is taken
// as 2 and interBudget < 1 as 100.
func MultiStepSweep(repRTT *cbg.Matrix, meta []VPMeta, tab *CoverTable, firstStep []int, target, maxRounds, interBudget int) ([]MultiStepResult, []bool) {
	if interBudget < 1 {
		interBudget = 100
	}
	n := max(maxRounds, 2) - 1
	out, ok := make([]MultiStepResult, n), make([]bool, n)
	sweep(repRTT, meta, tab, firstStep, target, interBudget, out, ok)
	return out, ok
}

// sweep is MultiStepSweep's walk into out and ok, one element per rounds
// value from 2 up: their length sets maxRounds. With one element the walk
// ends at its first candidate scan, so tab and interBudget are never read.
func sweep(repRTT *cbg.Matrix, meta []VPMeta, tab *CoverTable, firstStep []int, target, interBudget int, out []MultiStepResult, ok []bool) {
	res := MultiStepResult{}
	cur := firstStep
	var buf [8]geo.TrigCircle

	// At step r the open rounds values are out[r:], and out[r] (rounds =
	// r+2) finishes there whatever the candidate count.
	for r := 0; ; r++ {
		res.Rounds = r + 1
		res.Pings += int64(len(cur)) * RepPingsPerVP

		region := reducedRegion(repRTT, cur, target, geo.TwoThirdsC, buf[:0])
		if len(region) == 0 {
			for i := r; i < len(out); i++ {
				out[i] = res
			}
			return
		}
		candidates := regionCandidates(repRTT, meta, region)
		if len(candidates) == 0 {
			candidates = cur
		}

		// Final round: probe every remaining candidate and select.
		final := res
		final.Pings += int64(len(candidates)) * RepPingsPerVP
		final.Rounds++
		var best [1]int
		picked := len(repRTT.ClosestVPs(best[:0], target, candidates, 1)) > 0
		if picked {
			final.SelectedVP = best[0]
			final.Pings++ // final ping to the target itself
		}
		done := r + 1
		if len(candidates) <= interBudget {
			done = len(out)
		}
		for i := r; i < done; i++ {
			out[i], ok[i] = final, picked
		}
		if done == len(out) {
			return
		}

		// Intermediate round: keep an Earth-covering sample of candidates,
		// mapped from cover indices to VPs in place.
		cur = tab.Cover(candidates, interBudget)
		for i, p := range cur {
			cur[i] = candidates[p]
		}
	}
}
