package cbg_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"geoloc/internal/cbg"
	"geoloc/internal/core"
	"geoloc/internal/geo"
	"geoloc/internal/vpsel"
	"geoloc/internal/world"
)

var tiny = func() *core.Campaign {
	c := core.NewCampaign(world.TinyConfig())
	c.BuildMatrices()
	return c
}()

// closestRef is the k-lowest pick's reference: the subset's responsive
// VPs stable-sorted by RTT, so ties keep subset order, cut to k.
func closestRef(m *cbg.Matrix, target int, subset []int, k int) []int {
	if subset == nil {
		subset = make([]int, len(m.VPs))
		for i := range subset {
			subset[i] = i
		}
	}
	col := m.Column(target)
	var out []int
	for _, vp := range subset {
		if !cbg.IsUnresponsive(col[vp]) {
			out = append(out, vp)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return col[out[i]] < col[out[j]] })
	return out[:min(k, len(out))]
}

// closestCases returns the subsets the pick is held to on matrix m: every
// VP, the anchor rows, a 100-VP first-step cover and an unsorted stride.
func closestCases(c *core.Campaign, m *cbg.Matrix) map[string][]int {
	locs := make([]geo.Point, len(c.VPs))
	for i, h := range c.VPs {
		locs[i] = h.Reported
	}
	stride := make([]int, len(c.VPs)/3)
	for i := range stride {
		stride[i] = (i*7919 + 13) % len(c.VPs)
	}
	return map[string][]int{
		"all":     nil,
		"anchors": c.AnchorVPIndices(),
		"cover":   vpsel.GreedyCover(locs, 100),
		"stride":  stride,
	}
}

// TestClosestVPsMatchesReference holds ClosestVPs to closestRef on a
// matrix with ties and unresponsive cells, and on both Tiny matrices for
// every target, every subset of closestCases and k of 0, 1, 10, the
// subset's size and one more. The pick appends after what dst holds, and its k = 1
// answer is ShortestPingSubset's.
func TestClosestVPsMatchesReference(t *testing.T) {
	ties := cbg.NewMatrix(make([]geo.Point, 6), 1, nil)
	for vp, rtt := range []float32{30, 10, cbg.Unresponsive, 20, 10, -1} {
		ties.SetRow(vp, []float32{rtt})
	}
	type matrix struct {
		m       *cbg.Matrix
		subsets map[string][]int
	}
	matrices := map[string]matrix{
		"ties":   {ties, map[string][]int{"all": nil, "listed": {4, 0, 2, 1, 5, 3}, "none": {}}},
		"target": {tiny.TargetRTT, closestCases(tiny, tiny.TargetRTT)},
		"rep":    {tiny.RepRTT, closestCases(tiny, tiny.RepRTT)},
	}
	skipped := 0
	for mname, mx := range matrices {
		for sname, subset := range mx.subsets {
			n := len(subset)
			if subset == nil {
				n = len(mx.m.VPs)
			}
			for _, k := range []int{0, 1, 10, n, n + 1} {
				for target := range mx.m.Targets() {
					name := fmt.Sprintf("%s matrix, %s subset, k %d, target %d", mname, sname, k, target)
					want := closestRef(mx.m, target, subset, k)
					got := mx.m.ClosestVPs([]int{-1}, target, subset, k)
					if got[0] != -1 || !slices.Equal(got[1:], want) {
						t.Fatalf("%s: ClosestVPs appends %v after [-1], reference %v", name, got, want)
					}
					if k == n+1 {
						skipped += n - len(want)
					}
					if k != 1 {
						continue
					}
					p, ok := mx.m.ShortestPingSubset(target, subset)
					if ok != (len(want) > 0) || ok && p != mx.m.VPs[want[0]] {
						t.Fatalf("%s: ShortestPingSubset = %v, %v; reference VP %v", name, p, ok, want)
					}
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("every subset VP is responsive: the test never skips one")
	}
}

// TestClosestVPsAllocs pins the k-lowest pick at zero allocations when
// the caller's buffer holds k, for k below the subset size (the
// insertion) and at it (the stable sort), on every Tiny target.
func TestClosestVPsAllocs(t *testing.T) {
	m := tiny.RepRTT
	for name, subset := range closestCases(tiny, m) {
		n := len(subset)
		if subset == nil {
			n = len(m.VPs)
		}
		for _, k := range []int{10, n} {
			buf := make([]int, 0, k)
			target := 0
			if a := testing.AllocsPerRun(100, func() {
				m.ClosestVPs(buf, target%m.Targets(), subset, k)
				target++
			}); a != 0 {
				t.Errorf("%s subset, k %d: ClosestVPs allocates %v, want 0", name, k, a)
			}
		}
	}
}
