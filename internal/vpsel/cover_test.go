package vpsel

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"geoloc/internal/geo"
)

// TestCoverTableAt holds every pair of the tiny campaign's VPs, in both
// orders, to the kernel GreedyCover evaluates, bit for bit: the pairs the
// table stores and the pairs it computes alike.
func TestCoverTableAt(t *testing.T) {
	m := camp.RepRTT
	stored, direct := 0, 0
	for i := range m.VPs {
		for j := range m.VPs {
			want := math.Float64bits(math.Log1p(geo.TrigDistance(m.VPTrig(i), m.VPTrig(j))))
			if got := math.Float64bits(campTable.At(i, j)); got != want {
				t.Fatalf("At(%d, %d) = %x, kernel %x", i, j, got, want)
			}
			if got := math.Float64bits(campTable.At(j, i)); got != want {
				t.Fatalf("At(%d, %d) = %x, kernel of (%d, %d) %x", j, i, got, i, j, want)
			}
			if a, b := campTable.all.slot[i], campTable.all.slot[j]; a >= 0 && b >= 0 && a != b {
				stored++
			} else {
				direct++
			}
		}
	}
	if stored == 0 || direct <= len(m.VPs) {
		t.Fatalf("stored %d pairs, computed %d: the test reaches only one path", stored, direct)
	}
}

// TestCoverTableMatchesGreedyCover holds a table cover of random VP subsets,
// each holding VPs the table stores and VPs it does not, to GreedyCover over
// the same locations, at every size class: none, one, a prefix, one short
// of the identity, and the identity.
func TestCoverTableMatchesGreedyCover(t *testing.T) {
	m := camp.RepRTT
	var outside []int
	for vp := range m.VPs {
		if campTable.all.slot[vp] < 0 {
			outside = append(outside, vp)
		}
	}
	if len(outside) == 0 {
		t.Fatal("every tiny VP is its key's first: no subset reaches the direct path")
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		size := 20 + rng.Intn(len(m.VPs)-20)
		vps := rng.Perm(len(m.VPs))[:size]
		if !slices.ContainsFunc(vps, func(vp int) bool { return campTable.all.slot[vp] < 0 }) {
			vps[0] = outside[rng.Intn(len(outside))]
		}
		slices.Sort(vps)
		vps = slices.Compact(vps)
		locs := make([]geo.Point, len(vps))
		for i, vp := range vps {
			locs[i] = m.VPs[vp]
		}
		l := len(vps)
		for _, n := range []int{0, 1, 10, 100, l - 1, l, l + 1} {
			if got, want := campTable.Cover(vps, n), GreedyCover(locs, n); !slices.Equal(got, want) {
				t.Fatalf("subset of %d, n=%d: table cover %v, GreedyCover %v", l, n, got, want)
			}
		}
	}
}

// TestCoverAllocs pins a table cover's allocations at one constant count
// whatever n is: the subset's pair view, the run's state, its score buffer
// and the answer — nothing per pick.
func TestCoverAllocs(t *testing.T) {
	vps := make([]int, 0, len(camp.RepRTT.VPs))
	for vp := range camp.RepRTT.VPs {
		if vp%3 != 0 {
			vps = append(vps, vp)
		}
	}
	var counts []float64
	for _, n := range []int{1, 10, 100, len(vps) / 2} {
		counts = append(counts, testing.AllocsPerRun(20, func() { campTable.Cover(vps, n) }))
	}
	for _, c := range counts {
		if c != counts[0] || c > 5 {
			t.Fatalf("table covers of 1, 10, 100 and %d picks make %v allocations, want one count of at most 5", len(vps)/2, counts)
		}
	}
}
