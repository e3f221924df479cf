package netsim

import (
	"testing"

	"geoloc/internal/geo"
	"geoloc/internal/world"
)

var (
	tw  = world.Generate(world.TinyConfig())
	sim = New(tw, nil)
)

func hostPair(i, j int) (*world.Host, *world.Host) {
	return tw.Host(tw.Probes[i%len(tw.Probes)]), tw.Host(tw.Anchors[j%len(tw.Anchors)])
}

func TestRouteDeterministic(t *testing.T) {
	src, dst := hostPair(3, 5)
	p1 := sim.Route(src, dst)
	p2 := sim.Route(src, dst)
	if p1.OneWayMs != p2.OneWayMs || len(p1.Hops) != len(p2.Hops) {
		t.Fatal("route not deterministic")
	}
	for i := range p1.Hops {
		if p1.Hops[i] != p2.Hops[i] {
			t.Fatalf("hop %d differs", i)
		}
	}
}

func TestRouteHasHops(t *testing.T) {
	src, dst := hostPair(1, 2)
	p := sim.Route(src, dst)
	if len(p.Hops) == 0 {
		t.Fatal("path should have at least one router")
	}
	if p.OneWayMs <= 0 {
		t.Fatalf("one-way delay = %v", p.OneWayMs)
	}
	prev := 0.0
	for i, h := range p.Hops {
		if h.CumOneWayMs <= prev {
			t.Fatalf("cumulative delay not increasing at hop %d", i)
		}
		prev = h.CumOneWayMs
	}
	if p.OneWayMs <= prev {
		t.Fatal("total one-way must exceed last hop cumulative")
	}
}

// TestSpeedOfInternetInvariant is the core physical soundness property: no
// measured RTT may imply propagation faster than 2/3c over the great
// circle. CBG constraints derived from the simulator are therefore valid.
func TestSpeedOfInternetInvariant(t *testing.T) {
	for i := 0; i < 60; i++ {
		for j := 0; j < 10; j++ {
			src, dst := hostPair(i, j)
			rtt := sim.BaseRTTMs(src, dst)
			direct := geo.Distance(src.Loc, dst.Loc)
			implied := geo.RTTToDistanceKm(rtt, geo.TwoThirdsC)
			if implied < direct-1e-6 {
				t.Fatalf("SOI violation: %s->%s rtt %.3f ms implies %.1f km < true %.1f km",
					src.Addr, dst.Addr, rtt, implied, direct)
			}
		}
	}
}

func TestPingAtLeastBaseRTT(t *testing.T) {
	src, dst := hostPair(2, 3)
	base := sim.BaseRTTMs(src, dst)
	for salt := uint64(0); salt < 50; salt++ {
		rtt, ok := sim.Ping(src, dst, salt)
		if !ok {
			continue
		}
		if rtt < base {
			t.Fatalf("ping rtt %.4f below base %.4f", rtt, base)
		}
		if rtt > base+20 {
			t.Fatalf("ping jitter implausibly large: %.4f vs base %.4f", rtt, base)
		}
	}
}

// TestPingAllocs pins a ping on a warm skeleton at zero allocations: the
// route is walked, not built, and no per-packet slice is kept. That holds
// for a destination outside the access table too — an ephemeral web
// server, whose access link is computed per call. A traceroute into a
// caller's TraceBuf allocates nothing either.
func TestPingAllocs(t *testing.T) {
	s := New(tw, nil)
	src, dst := hostPair(2, 3)
	web := world.Host{ID: -1, Kind: world.WebServer, Addr: dst.Addr + 1, City: dst.City, AS: dst.AS,
		Loc: geo.Destination(dst.Loc, 45, 1), LastMileMs: 0.3, RespScore: 1}
	for _, c := range []struct {
		name   string
		dst    *world.Host
		tabled bool
	}{{"world hosts", dst, true}, {"web server destination", &web, false}} {
		if got := s.hostCell(c.dst) >= 0; got != c.tabled {
			t.Fatalf("%s: destination in the access table %v, want %v", c.name, got, c.tabled)
		}
		s.Ping(src, c.dst, 0)
		salt := uint64(0)
		if n := testing.AllocsPerRun(200, func() {
			salt++
			s.Ping(src, c.dst, salt)
		}); n != 0 {
			t.Errorf("%s: Ping on a warm skeleton: %v allocations, want 0", c.name, n)
		}
		var buf TraceBuf
		if n := testing.AllocsPerRun(200, func() {
			salt++
			s.TraceInto(&buf, src, c.dst, salt)
		}); n != 0 {
			t.Errorf("%s: TraceInto on a warm skeleton: %v allocations, want 0", c.name, n)
		}
	}
}

func TestPingDeterministicPerSalt(t *testing.T) {
	src, dst := hostPair(4, 1)
	r1, ok1 := sim.Ping(src, dst, 7)
	r2, ok2 := sim.Ping(src, dst, 7)
	if r1 != r2 || ok1 != ok2 {
		t.Error("same salt should reproduce the measurement")
	}
	r3, _ := sim.Ping(src, dst, 8)
	if r1 == r3 {
		t.Error("different salts should give different jitter")
	}
}

func TestPingUnresponsiveHost(t *testing.T) {
	src, _ := hostPair(0, 0)
	dead := *tw.Host(tw.Anchors[0])
	dead.RespScore = 0
	if _, ok := sim.Ping(src, &dead, 1); ok {
		t.Error("zero responsiveness host should never answer")
	}
	alive := *tw.Host(tw.Anchors[0])
	alive.RespScore = 1
	if _, ok := sim.Ping(src, &alive, 1); !ok {
		t.Error("fully responsive host should answer")
	}
}

func TestPingSelf(t *testing.T) {
	h := tw.Host(tw.Anchors[0])
	rtt, ok := sim.Ping(h, h, 0)
	if !ok || rtt > 1 {
		t.Errorf("self ping = %v, %v", rtt, ok)
	}
}

func TestRTTSymmetryOfBase(t *testing.T) {
	// Base RTT (no jitter) must be symmetric: destination-based routing with
	// the same waypoints in both directions.
	for i := 0; i < 30; i++ {
		src, dst := hostPair(i, i+1)
		ab := sim.BaseRTTMs(src, dst)
		ba := sim.BaseRTTMs(dst, src)
		if diff := ab - ba; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("asymmetric base RTT: %.6f vs %.6f", ab, ba)
		}
	}
}

func TestSameCitySameASFast(t *testing.T) {
	// Two anchors in the same city and AS should see a very small RTT.
	found := false
	anchors := tw.AnchorHosts()
	for i := 0; i < len(anchors) && !found; i++ {
		for j := i + 1; j < len(anchors); j++ {
			a, b := anchors[i], anchors[j]
			if a.City == b.City && a.AS == b.AS {
				rtt := sim.BaseRTTMs(a, b)
				if rtt > 5 {
					t.Errorf("same-city same-AS RTT = %.2f ms, want < 5", rtt)
				}
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("tiny world has no same-city same-AS anchor pair")
	}
}

func TestFarPairsSlower(t *testing.T) {
	// RTT should grow with distance in the aggregate.
	var nearSum, nearN, farSum, farN float64
	for i := 0; i < 80; i++ {
		src, dst := hostPair(i, 3*i)
		d := geo.Distance(src.Loc, dst.Loc)
		rtt := sim.BaseRTTMs(src, dst)
		if d < 1500 {
			nearSum += rtt
			nearN++
		} else if d > 6000 {
			farSum += rtt
			farN++
		}
	}
	if nearN == 0 || farN == 0 {
		t.Skip("sample lacks near or far pairs")
	}
	if farSum/farN <= nearSum/nearN {
		t.Errorf("far pairs (%.1f ms avg) should be slower than near (%.1f ms)",
			farSum/farN, nearSum/nearN)
	}
}

func TestTracerouteStructure(t *testing.T) {
	src, dst := hostPair(5, 6)
	tr := sim.Traceroute(src, dst, 1)
	if len(tr.Hops) == 0 {
		t.Fatal("traceroute should have hops")
	}
	path := sim.Route(src, dst)
	if len(tr.Hops) != len(path.Hops) {
		t.Fatalf("trace hops %d != path hops %d", len(tr.Hops), len(path.Hops))
	}
	for i := range tr.Hops {
		if tr.Hops[i].RouterID != path.Hops[i].RouterID {
			t.Fatalf("hop %d router mismatch", i)
		}
		if tr.Hops[i].RTTMs < 2*path.Hops[i].CumOneWayMs {
			t.Fatalf("hop %d RTT below physical floor", i)
		}
	}
	if tr.DstRTTMs < 2*path.OneWayMs {
		t.Fatal("destination RTT below physical floor")
	}
}

func TestTracerouteHopJitterCanExceedDstRTT(t *testing.T) {
	// ICMP spikes must occasionally push a hop RTT above the destination
	// RTT; this is the mechanism behind negative D1+D2 values.
	src, dst := hostPair(2, 4)
	seen := false
	for salt := uint64(0); salt < 200 && !seen; salt++ {
		tr := sim.Traceroute(src, dst, salt)
		for _, h := range tr.Hops {
			if h.RTTMs > tr.DstRTTMs {
				seen = true
				break
			}
		}
	}
	if !seen {
		t.Error("no hop RTT ever exceeded destination RTT in 200 traces; ICMP jitter too weak")
	}
}

func TestLastCommonHop(t *testing.T) {
	// Two destinations in the same city reached from one VP share a path
	// prefix; LastCommonHop must find it.
	var vp *world.Host
	var d1, d2 *world.Host
	anchors := tw.AnchorHosts()
outer:
	for _, a := range anchors {
		for _, b := range anchors {
			if a.ID != b.ID && a.City == b.City {
				d1, d2 = a, b
				continue
			}
			if d1 != nil && b.City != d1.City {
				vp = b
				break outer
			}
		}
	}
	if vp == nil || d1 == nil {
		t.Skip("tiny world lacks suitable triple")
	}
	ta := sim.Traceroute(vp, d1, 1)
	tb := sim.Traceroute(vp, d2, 1)
	ai, bi, ok := LastCommonHop(ta, tb)
	if !ok {
		t.Skip("no responsive common hop in this sample")
	}
	if ta.Hops[ai].RouterID != tb.Hops[bi].RouterID {
		t.Fatal("common hop router IDs differ")
	}
}

func TestLastCommonHopDisjoint(t *testing.T) {
	a := Trace{Hops: []TraceHop{{RouterID: 1, Responded: true}}}
	b := Trace{Hops: []TraceHop{{RouterID: 2, Responded: true}}}
	if _, _, ok := LastCommonHop(a, b); ok {
		t.Error("disjoint traces should have no common hop")
	}
}

func TestLastCommonHopSkipsUnresponsive(t *testing.T) {
	a := Trace{Hops: []TraceHop{
		{RouterID: 1, Responded: true},
		{RouterID: 2, Responded: false},
		{RouterID: 3, Responded: true},
	}}
	b := Trace{Hops: []TraceHop{
		{RouterID: 1, Responded: true},
		{RouterID: 2, Responded: true},
		{RouterID: 3, Responded: true},
	}}
	ai, _, ok := LastCommonHop(a, b)
	if !ok || ai != 2 {
		t.Errorf("expected last common responsive hop at 2, got %d ok=%v", ai, ok)
	}
}

func TestTier1FallbackInDegenerateWorld(t *testing.T) {
	cfg := world.TinyConfig()
	cfg.Tier1ASes = 0
	w := world.Generate(cfg)
	s := New(w, nil)
	if len(s.tier1) == 0 {
		t.Fatal("simulator must always have a transit AS")
	}
	// Routing must still work between arbitrary hosts.
	src, dst := w.Host(w.Probes[0]), w.Host(w.Anchors[0])
	if rtt := s.BaseRTTMs(src, dst); rtt <= 0 {
		t.Fatalf("rtt = %v", rtt)
	}
}

func TestLastMileRaisesRTT(t *testing.T) {
	src := *tw.Host(tw.Probes[0])
	dst := tw.Host(tw.Anchors[0])
	base := sim.BaseRTTMs(&src, dst)
	src.LastMileMs += 5
	if inflated := sim.BaseRTTMs(&src, dst); inflated < base+9.9 {
		t.Errorf("5 ms extra last mile raised RTT by %.2f, want ~10 (both directions)", inflated-base)
	}
}
