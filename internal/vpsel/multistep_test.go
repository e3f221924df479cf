package vpsel

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"geoloc/internal/cbg"
	"geoloc/internal/geo"
)

// multiStepOracle is MultiStepSweep's reference: a plain loop over the
// rounds of one rounds value that tests containment with Region.Contains
// and reports which exit it took.
func multiStepOracle(repRTT *cbg.Matrix, meta []VPMeta, firstStep []int, target, rounds, interBudget int) (MultiStepResult, bool, string) {
	res := MultiStepResult{}
	cur := firstStep

	for r := 0; r < rounds; r++ {
		res.Rounds = r + 1
		res.Pings += int64(len(cur)) * RepPingsPerVP

		region := regionFromSubset(repRTT, cur, target, geo.TwoThirdsC)
		if len(region.Circles) == 0 {
			return res, false, "empty region"
		}
		red := region.Reduced()

		type key struct{ as, city int }
		seen := make(map[key]bool)
		var candidates []int
		for vp := range repRTT.VPs {
			if !red.Contains(repRTT.VPs[vp]) {
				continue
			}
			k := key{meta[vp].AS, meta[vp].City}
			if seen[k] {
				continue
			}
			seen[k] = true
			candidates = append(candidates, vp)
		}
		if len(candidates) == 0 {
			candidates = cur
		}

		exit := ""
		switch {
		case r == rounds-2:
			exit = "last round"
		case len(candidates) <= interBudget:
			exit = "fits budget early"
		}
		if exit != "" {
			res.Pings += int64(len(candidates)) * RepPingsPerVP
			res.Rounds++
			best, bestRTT := -1, math.Inf(1)
			for _, vp := range candidates {
				rtt := float64(repRTT.Column(target)[vp])
				if math.IsNaN(rtt) || rtt < 0 {
					continue
				}
				if rtt < bestRTT {
					best, bestRTT = vp, rtt
				}
			}
			if best < 0 {
				return res, false, "no responsive candidate"
			}
			res.SelectedVP = best
			res.Pings++
			return res, true, exit
		}

		locs := make([]geo.Point, len(candidates))
		for i, vp := range candidates {
			locs[i] = repRTT.VPs[vp]
		}
		picked := GreedyCover(locs, interBudget)
		next := make([]int, len(picked))
		for i, p := range picked {
			next[i] = candidates[p]
		}
		cur = next
	}
	panic("unreachable: the rounds-2 step always exits")
}

// TestMultiStepSweepMatchesOracle holds the one-walk sweep to the
// per-rounds loop for every target, rounds value, first-step size and
// intermediate budget, and checks the grid reaches every exit the sweep
// shares between rounds values: the empty region and the early fit.
//
// The fully measured tiny campaign never takes the empty-region exit, so
// the test matrix appends three lens targets. Each answers only two of the
// first three cover VPs, at an RTT whose radius is 0.6 of their distance:
// the region is the lens between them, which holds neither, so every
// candidate inside it is unresponsive. An intermediate round's sample of
// those candidates then has no circle at all.
func TestMultiStepSweepMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep over the whole tiny campaign")
	}
	meta := campaignMeta(camp)
	locs := make([]geo.Point, len(camp.VPs))
	for i, h := range camp.VPs {
		locs[i] = h.Reported
	}
	const maxRounds = 5
	nT := len(camp.Targets)
	m := cbg.NewMatrix(camp.RepRTT.VPs, nT+3, nil)
	cover := GreedyCover(locs, 3)
	lenses := [][2]int{{cover[0], cover[1]}, {cover[0], cover[2]}, {cover[1], cover[2]}}
	row := make([]float32, nT+3)
	for vp := range m.VPs {
		for target := range nT {
			row[target] = camp.RepRTT.Column(target)[vp]
		}
		for i, lens := range lenses {
			row[nT+i] = cbg.Unresponsive
			if a, b := lens[0], lens[1]; vp == a || vp == b {
				row[nT+i] = float32(geo.DistanceToRTTMs(0.6*geo.Distance(m.VPs[a], m.VPs[b]), geo.TwoThirdsC))
			}
		}
		m.SetRow(vp, row)
	}

	tab := NewCoverTable(m, meta)
	exits := map[string]int{}
	for _, size := range []int{3, 10, 30} {
		firstStep := GreedyCover(locs, size)
		for target := 0; target < nT+3; target++ {
			// A budget equal to the first round's candidate count puts the
			// early fit exactly on its boundary.
			budgets := []int{20, 100, 400}
			if region := regionFromSubset(m, firstStep, target, geo.TwoThirdsC); len(region.Circles) > 0 {
				if n := len(refRegionCandidates(m, meta, region.Reduced())); n > 0 {
					budgets = append(budgets, n)
				}
			}
			for _, budget := range budgets {
				out, ok := MultiStepSweep(m, meta, tab, firstStep, target, maxRounds, budget)
				if len(out) != maxRounds-1 || len(ok) != maxRounds-1 {
					t.Fatalf("sweep returned %d results, %d verdicts; want %d", len(out), len(ok), maxRounds-1)
				}
				for rounds := 2; rounds <= maxRounds; rounds++ {
					want, wantOK, exit := multiStepOracle(m, meta, firstStep, target, rounds, budget)
					exits[exit]++
					if got, gotOK := out[rounds-2], ok[rounds-2]; got != want || gotOK != wantOK {
						t.Fatalf("first step %d, budget %d, target %d, rounds %d: sweep %+v %v, oracle %+v %v (%s)",
							size, budget, target, rounds, got, gotOK, want, wantOK, exit)
					}
				}
			}
		}
	}
	t.Logf("oracle exits: %v", exits)
	for _, exit := range []string{"empty region", "fits budget early", "last round"} {
		if exits[exit] == 0 {
			t.Errorf("no case took the %q exit: %v", exit, exits)
		}
	}
}

// TestGreedyCoverPrefix pins the contract the experiments' shared
// first-step cover rests on: a smaller cover is a prefix of a larger one,
// until the size reaches the point count and the answer is the identity.
func TestGreedyCoverPrefix(t *testing.T) {
	locs := make([]geo.Point, len(camp.VPs))
	for i, h := range camp.VPs {
		locs[i] = h.Reported
	}
	l := len(locs)
	for _, n := range []int{1, 10, 60, l - 1} {
		cover := GreedyCover(locs, n)
		for _, k := range []int{1, 3, 10, 25, 60, l - 1} {
			if k > n {
				continue
			}
			if got := GreedyCover(locs, k); !slices.Equal(got, cover[:k]) {
				t.Fatalf("GreedyCover(l, %d) = %v, not the first %d of GreedyCover(l, %d) = %v", k, got, k, n, cover[:k])
			}
		}
	}
	for _, n := range []int{l, l + 1, 2 * l} {
		got := GreedyCover(locs, n)
		if len(got) != l {
			t.Fatalf("GreedyCover(l, %d) has %d picks, want all %d", n, len(got), l)
		}
		for i, p := range got {
			if p != i {
				t.Fatalf("GreedyCover(l, %d)[%d] = %d, want the identity", n, i, p)
			}
		}
	}
}

// lastRound is the selection MultiStepSweep makes with exactly rounds
// rounds: its last answer.
func lastRound(out []MultiStepResult, ok []bool) (MultiStepResult, bool) {
	return out[len(out)-1], ok[len(ok)-1]
}

func TestMultiStepSelectBasics(t *testing.T) {
	meta := campaignMeta(camp)
	locs := make([]geo.Point, len(camp.VPs))
	for i, h := range camp.VPs {
		locs[i] = h.Reported
	}
	firstStep := GreedyCover(locs, 10)

	okCount := 0
	for target := range camp.Targets {
		res, ok := lastRound(MultiStepSweep(camp.RepRTT, meta, campTable, firstStep, target, 3, 50))
		if !ok {
			continue
		}
		okCount++
		if res.SelectedVP < 0 || res.SelectedVP >= len(camp.VPs) {
			t.Fatalf("invalid VP %d", res.SelectedVP)
		}
		if res.Pings < int64(len(firstStep))*RepPingsPerVP {
			t.Fatalf("pings %d below first-step floor", res.Pings)
		}
		if res.Rounds < 2 {
			t.Fatalf("rounds = %d", res.Rounds)
		}
	}
	if okCount < len(camp.Targets)/2 {
		t.Errorf("multi-step succeeded for only %d/%d targets", okCount, len(camp.Targets))
	}
}

// TestTwoStepIsTwoRoundSweep holds TwoStepSelect to the last round of a
// two-round MultiStepSweep on every Tiny target, from the greedy covers of
// 10, 100 and 300 VPs and from the ablations' strided random 10: the
// selected VP, the ping count and ok all agree exactly.
func TestTwoStepIsTwoRoundSweep(t *testing.T) {
	meta := campaignMeta(camp)
	locs := make([]geo.Point, len(camp.VPs))
	for i, h := range camp.VPs {
		locs[i] = h.Reported
	}
	random := make([]int, 10)
	for i := range random {
		random[i] = (i * 7919) % len(camp.VPs)
	}
	firstSteps := map[string][]int{"random 10": random}
	for _, n := range []int{10, 100, 300} {
		firstSteps[fmt.Sprintf("cover %d", n)] = GreedyCover(locs, n)
	}
	selected := 0
	for name, firstStep := range firstSteps {
		for target := range camp.Targets {
			want, wantOK := lastRound(MultiStepSweep(camp.RepRTT, meta, campTable, firstStep, target, 2, 100))
			got, ok := TwoStepSelect(camp.RepRTT, meta, firstStep, target)
			if got.SelectedVP != want.SelectedVP || got.Pings != want.Pings || ok != wantOK {
				t.Fatalf("%s, target %d: TwoStepSelect (VP %d, %d pings, %v), two-round sweep (VP %d, %d pings, %v)",
					name, target, got.SelectedVP, got.Pings, ok, want.SelectedVP, want.Pings, wantOK)
			}
			if ok {
				selected++
			}
		}
	}
	if selected == 0 {
		t.Fatal("no first step selects a VP for any target")
	}
}

func TestMultiStepMoreRoundsNotMoreExpensivePerTargetOnAverage(t *testing.T) {
	meta := campaignMeta(camp)
	locs := make([]geo.Point, len(camp.VPs))
	for i, h := range camp.VPs {
		locs[i] = h.Reported
	}
	firstStep := GreedyCover(locs, 10)

	cost := func(rounds int) (int64, int) {
		var total int64
		n := 0
		for target := range camp.Targets {
			if res, ok := lastRound(MultiStepSweep(camp.RepRTT, meta, campTable, firstStep, target, rounds, 40)); ok {
				total += res.Pings
				n++
			}
		}
		return total, n
	}
	c2, n2 := cost(2)
	c3, n3 := cost(3)
	if n2 == 0 || n3 == 0 {
		t.Skip("no selections")
	}
	per2 := float64(c2) / float64(n2)
	per3 := float64(c3) / float64(n3)
	// Intermediate sampling should not blow up the cost; it can reduce it
	// when regions are large.
	if per3 > 2*per2 {
		t.Errorf("3 rounds cost %.0f pings/target vs 2 rounds %.0f — extra rounds should not double cost", per3, per2)
	}
}

func TestMultiStepRoundsClamped(t *testing.T) {
	meta := campaignMeta(camp)
	locs := make([]geo.Point, len(camp.VPs))
	for i, h := range camp.VPs {
		locs[i] = h.Reported
	}
	firstStep := GreedyCover(locs, 5)
	// rounds < 2 clamps to 2; interBudget < 1 clamps to a sane default.
	if _, ok := lastRound(MultiStepSweep(camp.RepRTT, meta, campTable, firstStep, 0, 0, 0)); !ok {
		t.Skip("target 0 unselectable in tiny world")
	}
}
