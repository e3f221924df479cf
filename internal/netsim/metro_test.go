package netsim

import (
	"testing"

	"geoloc/internal/geo"
	"geoloc/internal/world"
)

// TestMetroConvergence verifies the street-level-critical path property:
// traceroutes from one far vantage point to two hosts in the same city
// share that city's metro ingress router, so LastCommonHop lands near the
// destinations rather than near the source.
func TestMetroConvergence(t *testing.T) {
	anchors := tw.AnchorHosts()
	var a, b *world.Host
	// Two same-city, different-AS anchors.
	for i := 0; i < len(anchors) && a == nil; i++ {
		for j := i + 1; j < len(anchors); j++ {
			if anchors[i].City == anchors[j].City && anchors[i].AS != anchors[j].AS {
				a, b = anchors[i], anchors[j]
				break
			}
		}
	}
	if a == nil {
		t.Skip("tiny world has no same-city cross-AS anchor pair")
	}
	// A VP in another city, another AS.
	var vp *world.Host
	for _, h := range anchors {
		if h.City != a.City && h.AS != a.AS && h.AS != b.AS &&
			geo.Distance(h.Loc, a.Loc) > 300 {
			vp = h
			break
		}
	}
	if vp == nil {
		t.Skip("no distant VP available")
	}

	ta := sim.Traceroute(vp, a, 1)
	tb := sim.Traceroute(vp, b, 1)
	ai, bi, ok := LastCommonHop(ta, tb)
	if !ok {
		t.Skip("no responsive common hop in this draw")
	}
	// When both paths are inter-city cross-AS, the last common hop must be
	// geographically near the destination city, not near the VP. Resolve
	// the hop location through the path.
	path := sim.Route(vp, a)
	var hopLoc geo.Point
	for _, h := range path.Hops {
		if h.RouterID == ta.Hops[ai].RouterID {
			hopLoc = h.Loc
		}
	}
	_ = bi
	dstCity := tw.Cities[a.City]
	if hopLoc.Valid() {
		dToDst := geo.Distance(hopLoc, dstCity.Loc)
		dToVP := geo.Distance(hopLoc, vp.Loc)
		if dToDst > dToVP {
			t.Logf("last common hop closer to VP (%.0f km) than to destination city (%.0f km)", dToVP, dToDst)
			// Not fatal: peering-city divergence can legitimately put the
			// split earlier. But it must happen for at least *some* pairs —
			// covered by the aggregate negative-delay tests in streetlevel.
		}
	}
}

func TestPathNoiseDeterministicSymmetric(t *testing.T) {
	src, dst := hostPair(1, 1)
	n1 := sim.pathNoise(src, dst)
	n2 := sim.pathNoise(dst, src)
	if n1 != n2 {
		t.Errorf("path noise asymmetric: %v vs %v", n1, n2)
	}
	if n1 < 0 {
		t.Errorf("path noise negative: %v", n1)
	}
	if n3 := sim.pathNoise(src, dst); n3 != n1 {
		t.Error("path noise not deterministic")
	}
}

func TestPathNoiseSmallForLocalPairs(t *testing.T) {
	// Hosts a couple of km apart carry near-zero persistent noise.
	a := *tw.Host(tw.Anchors[0])
	b := a
	b.Addr++
	b.Loc = geo.Destination(a.Loc, 90, 2)
	if n := sim.pathNoise(&a, &b); n > 0.2 {
		t.Errorf("local path noise = %.3f ms, want < 0.2", n)
	}
}

func TestPathNoiseBounded(t *testing.T) {
	maxBand := pathNoiseMeanMs * 1.8 // 0.2m + 1.6m upper bound
	for i := 0; i < 200; i++ {
		src, dst := hostPair(i, 2*i+1)
		if n := sim.pathNoise(src, dst); n > maxBand+1e-9 {
			t.Fatalf("path noise %v exceeds band %v", n, maxBand)
		}
	}
}

func TestAnchorPairsCleanerThanProbePairs(t *testing.T) {
	// The datacenter-pair adjustment must make anchor↔anchor paths less
	// inflated than probe↔anchor paths over similar distances.
	var anchorRatio, probeRatio []float64
	anchors := tw.AnchorHosts()
	probes := tw.ProbeHosts()
	for i := 0; i < 40; i++ {
		a := anchors[i%len(anchors)]
		b := anchors[(i*3+1)%len(anchors)]
		d := geo.Distance(a.Loc, b.Loc)
		if d > 500 && a.ID != b.ID {
			anchorRatio = append(anchorRatio, sim.BaseRTTMs(a, b)/geo.DistanceToRTTMs(d, geo.TwoThirdsC))
		}
		p := probes[(i*7)%len(probes)]
		d = geo.Distance(p.Loc, b.Loc)
		if d > 500 {
			probeRatio = append(probeRatio, sim.BaseRTTMs(p, b)/geo.DistanceToRTTMs(d, geo.TwoThirdsC))
		}
	}
	if len(anchorRatio) == 0 || len(probeRatio) == 0 {
		t.Skip("not enough long pairs")
	}
	mean := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	if mean(anchorRatio) >= mean(probeRatio) {
		t.Errorf("anchor-pair inflation %.2f should be below probe-pair %.2f",
			mean(anchorRatio), mean(probeRatio))
	}
}
