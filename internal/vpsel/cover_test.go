package vpsel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"geoloc/internal/cbg"
	"geoloc/internal/core"
	"geoloc/internal/geo"
	"geoloc/internal/world"
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

// TestGreedyCoverAllocs pins a fanned cover's allocations at one count
// whatever n is: its state, score blocks and answer, and the one par.Loop
// that every pick runs (its body, the loop and its helper) — nothing per
// pick. AllocsPerRun runs at
// GOMAXPROCS 1, where GreedyCover would not fan, so the worker count is
// passed.
func TestGreedyCoverAllocs(t *testing.T) {
	p := coverPairs{tr: make([]geo.Trig, len(camp.VPs))}
	for i, h := range camp.VPs {
		p.tr[i] = geo.MakeTrig(h.Reported)
	}
	var counts []float64
	for _, n := range []int{1, 10, 100, len(p.tr) / 2} {
		counts = append(counts, testing.AllocsPerRun(20, func() { greedyCover(p, n, 2) }))
	}
	for _, c := range counts {
		if c != counts[0] || c > 6 {
			t.Fatalf("covers of 1, 10, 100 and %d picks at 2 workers make %v allocations, want one count of at most 6", len(p.tr)/2, counts)
		}
	}
}

// mediumVPs is the Medium campaign's VP set, as the first-step cover sees
// it: each VP's reported location and its (AS, city) key. Only the cover
// tests build it.
var mediumVPs = sync.OnceValues(func() ([]geo.Point, []VPMeta) {
	c := core.NewCampaign(world.MediumConfig())
	locs := make([]geo.Point, len(c.VPs))
	for i, h := range c.VPs {
		locs[i] = h.Reported
	}
	return locs, campaignMeta(c)
})

// TestGreedyCoverWorkersAgree holds a cover fanned at 2 and 4 workers, and a
// table cover, to the one-worker cover over the Medium VP set, pick for
// pick, from one pick to one short of the identity.
func TestGreedyCoverWorkersAgree(t *testing.T) {
	locs, meta := mediumVPs()
	m := len(locs)
	p := coverPairs{tr: make([]geo.Trig, m)}
	for i, l := range locs {
		p.tr[i] = geo.MakeTrig(l)
	}
	table := NewCoverTable(cbg.NewMatrix(locs, 0, nil), meta)
	all := make([]int, m)
	for i := range all {
		all[i] = i
	}
	for _, n := range []int{1, 10, 100, 1000, m - 1} {
		want := greedyCover(p, n, 1)
		if len(want) != n {
			t.Fatalf("n=%d: the one-worker cover has %d picks", n, len(want))
		}
		for _, workers := range []int{2, 4} {
			if got := greedyCover(p, n, workers); !slices.Equal(got, want) {
				t.Fatalf("n=%d: the cover at %d workers differs from one worker's first at pick %d", n, workers, firstDiff(got, want))
			}
		}
		if got := table.Cover(all, n); !slices.Equal(got, want) {
			t.Fatalf("n=%d: the table cover differs from the one-worker cover first at pick %d", n, firstDiff(got, want))
		}
	}
}

// firstDiff returns the first index where a and b differ.
func firstDiff(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// BenchmarkGreedyCover times fig3b's first-step cover: 1,000 picks over the
// Medium VP set, at 1 and 2 workers.
func BenchmarkGreedyCover(b *testing.B) {
	locs, _ := mediumVPs()
	p := coverPairs{tr: make([]geo.Trig, len(locs))}
	for i, l := range locs {
		p.tr[i] = geo.MakeTrig(l)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for range b.N {
				greedyCover(p, 1000, workers)
			}
		})
	}
}
