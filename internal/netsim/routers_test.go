package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/par"
	"geoloc/internal/rhash"
	"geoloc/internal/world"
)

// pathNoise is the pair's path noise at the great-circle distance of the
// two hosts, from geo.Distance rather than the trig a route walk reuses.
func (s *Sim) pathNoise(src, dst *world.Host) float64 {
	return s.pathNoiseKm(src, dst, geo.Distance(src.Loc, dst.Loc))
}

// directRoute is a route computed link by link, without the router table,
// the skeleton table or cached trig: every hop's id and location come from
// routerID and routerLoc, and every link from geo.Distance.
func directRoute(s *Sim, src, dst *world.Host) Path {
	refs := s.routeRouters(src, dst, nil)
	hops := make([]PathHop, len(refs))
	directPair := src.Kind == world.Anchor && dst.Kind == world.Anchor
	adjust := func(f float64) float64 {
		if directPair {
			return s.Cfg.CableFactorMin + (f-s.Cfg.CableFactorMin)*0.08
		}
		return f
	}
	cum := src.LastMileMs
	prevLoc := src.Loc
	var prevID uint64
	for i, r := range refs {
		id := s.routerID(r)
		loc := s.routerLoc(r)
		linkKm := geo.Distance(prevLoc, loc)
		var factor float64
		if i == 0 {
			factor = s.cableFactor(rhash.Hash(uint64(src.Addr)), id)
		} else {
			factor = s.cableFactor(prevID, id)
		}
		cum += linkKm*adjust(factor)/geo.TwoThirdsC + s.Cfg.HopProcessingMs
		hops[i] = PathHop{RouterID: id, Loc: loc, ASID: r.asID, CumOneWayMs: cum}
		prevLoc, prevID = loc, id
	}
	lastKm := geo.Distance(prevLoc, dst.Loc)
	total := cum + lastKm*adjust(s.cableFactor(prevID, rhash.Hash(uint64(dst.Addr))))/geo.TwoThirdsC + dst.LastMileMs
	total += s.pathNoise(src, dst)
	return Path{Hops: hops, OneWayMs: total}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePlace(a, b routerPlace) bool {
	return a.id == b.id && sameBits(a.loc.Lat, b.loc.Lat) && sameBits(a.loc.Lon, b.loc.Lon) &&
		sameBits(a.trig.LatRad, b.trig.LatRad) && sameBits(a.trig.LonRad, b.trig.LonRad) &&
		sameBits(a.trig.CosLat, b.trig.CosLat)
}

func samePath(a, b Path) bool {
	if !sameBits(a.OneWayMs, b.OneWayMs) || len(a.Hops) != len(b.Hops) {
		return false
	}
	for i, h := range a.Hops {
		g := b.Hops[i]
		if h.RouterID != g.RouterID || !sameBits(h.Loc.Lat, g.Loc.Lat) || !sameBits(h.Loc.Lon, g.Loc.Lon) ||
			h.ASID != g.ASID || !sameBits(h.CumOneWayMs, g.CumOneWayMs) {
			return false
		}
	}
	return true
}

// TestRouterTable holds every cell of the router table to routerID and
// routerLoc bit for bit, on the tiny and medium worlds, and checks the
// table has exactly one cell per router it covers.
func TestRouterTable(t *testing.T) {
	worlds := []*world.World{tw}
	if !testing.Short() {
		worlds = append(worlds, world.Generate(world.MediumConfig()))
	}
	for _, w := range worlds {
		s := New(w)
		var refs []routerRef
		for as := range w.ASes {
			refs = append(refs, routerRef{asID: as, city: w.ASes[as].Hub, role: roleBackbone})
			for _, city := range w.ASes[as].PoPs {
				refs = append(refs,
					routerRef{asID: as, city: city, role: roleGateway},
					routerRef{asID: as, city: city, role: rolePeering})
			}
		}
		for city := range w.Cities {
			refs = append(refs,
				routerRef{asID: -1, city: city, role: roleIXP},
				routerRef{asID: -2, city: city, role: roleMetro})
		}
		if len(refs) != len(s.routers) {
			t.Fatalf("%d routers, table has %d cells", len(refs), len(s.routers))
		}
		filled := make([]bool, len(s.routers))
		for _, r := range refs {
			i := s.routerCell(r)
			if i < 0 || filled[i] {
				t.Fatalf("router %+v: cell %d (filled before: %v)", r, i, i >= 0 && filled[i])
			}
			filled[i] = true
			loc := s.routerLoc(r)
			if want := (routerPlace{id: s.routerID(r), loc: loc, trig: geo.MakeTrig(loc)}); !samePlace(s.routers[i], want) {
				t.Fatalf("router %+v: table %+v, computed %+v", r, s.routers[i], want)
			}
		}
		t.Logf("%d cities, %d ASes: %d routers in the table", len(w.Cities), len(w.ASes), len(refs))
	}
}

// oraclePing is Ping with no fault profile, its base RTT taken from a
// directRoute path.
func oraclePing(s *Sim, p Path, src, dst *world.Host, salt uint64) (float64, bool) {
	st := rhash.New(s.W.Cfg.Seed, rhash.HashString("ping"), uint64(src.Addr), uint64(dst.Addr), salt)
	min, ok := 0.0, false
	for range s.Cfg.PingPackets {
		jitter := st.Exp(s.Cfg.PingJitterMeanMs)
		if !st.Bool(dst.RespScore) {
			continue
		}
		if rtt := 2*p.OneWayMs + jitter; !ok || rtt < min {
			min, ok = rtt, true
		}
	}
	return min, ok
}

// oracleTrace is Traceroute with no fault profile over a directRoute path.
func oracleTrace(s *Sim, p Path, src, dst *world.Host, salt uint64) Trace {
	st := rhash.New(s.W.Cfg.Seed, rhash.HashString("traceroute"), uint64(src.Addr), uint64(dst.Addr), salt)
	tr := Trace{Hops: make([]TraceHop, len(p.Hops))}
	for i, h := range p.Hops {
		jitter := st.Exp(s.Cfg.ICMPJitterMeanMs)
		if st.Bool(s.Cfg.ICMPSpikeProb) {
			jitter += math.Min(st.Exp(s.Cfg.ICMPSpikeMeanMs), s.Cfg.ICMPSpikeMaxMs)
		}
		tr.Hops[i] = TraceHop{RouterID: h.RouterID, ASID: h.ASID, RTTMs: 2*h.CumOneWayMs + jitter, Responded: st.Bool(0.95)}
	}
	tr.DstRTTMs = 2*p.OneWayMs + st.Exp(s.Cfg.PingJitterMeanMs)
	tr.DstResponded = st.Bool(dst.RespScore)
	return tr
}

func sameTrace(a, b Trace) bool {
	if len(a.Hops) != len(b.Hops) || !sameBits(a.DstRTTMs, b.DstRTTMs) ||
		a.DstResponded != b.DstResponded || a.Truncated != b.Truncated {
		return false
	}
	for i, h := range a.Hops {
		g := b.Hops[i]
		if h.RouterID != g.RouterID || h.ASID != g.ASID || !sameBits(h.RTTMs, g.RTTMs) || h.Responded != g.Responded {
			return false
		}
	}
	return true
}

// checkOracle holds Route, BaseRTTMs, Ping and Traceroute for the pair to
// the directRoute oracle bit for bit; it returns what differs, or "".
func checkOracle(s *Sim, src, dst *world.Host, salt uint64) string {
	want := directRoute(s, src, dst)
	if got := s.Route(src, dst); !samePath(got, want) {
		return fmt.Sprintf("Route %+v, direct %+v", got, want)
	}
	if got := s.BaseRTTMs(src, dst); !sameBits(got, 2*want.OneWayMs) {
		return fmt.Sprintf("BaseRTTMs %v, direct %v", got, 2*want.OneWayMs)
	}
	rtt, ok := s.Ping(src, dst, salt)
	if wantRTT, wantOK := oraclePing(s, want, src, dst, salt); ok != wantOK || !sameBits(rtt, wantRTT) {
		return fmt.Sprintf("Ping (%v, %v), direct (%v, %v)", rtt, ok, wantRTT, wantOK)
	}
	if got, want := s.Traceroute(src, dst, salt), oracleTrace(s, want, src, dst, salt); !sameTrace(got, want) {
		return fmt.Sprintf("Traceroute %+v, direct %+v", got, want)
	}
	return ""
}

// oraclePairs draws n distinct-address host pairs over w. Half are two
// hosts of the world or synthetic web servers (ID −1, a fifth of the
// draws) homed in a random AS and city, whose gateway the router table may
// not hold. The rest aim at route shapes: a second host in the source's
// AS (intra-AS, same-city when the city matches), one in its city (IXP
// peering when both ASes have a PoP there), and a copy of the destination
// with its last mile, location or kind changed, which follows the
// original so the table serves the copy the original's skeleton.
func oraclePairs(w *world.World, n int, seed int64) [][2]*world.Host {
	rng := rand.New(rand.NewSource(seed))
	synthetic := func(as, city int) *world.Host {
		return &world.Host{
			ID:         -1,
			Kind:       world.WebServer,
			Addr:       ipaddr.Addr(rng.Uint32()),
			City:       city,
			AS:         as,
			Loc:        geo.Destination(w.Cities[city].Loc, rng.Float64()*360, rng.Float64()*2),
			LastMileMs: 0.1 + rng.Float64(),
			RespScore:  rng.Float64(),
		}
	}
	host := func() *world.Host {
		if rng.Intn(5) > 0 {
			return &w.Hosts[rng.Intn(len(w.Hosts))]
		}
		return synthetic(rng.Intn(len(w.ASes)), rng.Intn(len(w.Cities)))
	}
	var pairs [][2]*world.Host
	for len(pairs) < n {
		src, dst := host(), host()
		switch rng.Intn(6) {
		case 3:
			pops := w.ASes[src.AS].PoPs
			dst = synthetic(src.AS, pops[rng.Intn(len(pops))])
		case 4:
			as := rng.Intn(len(w.ASes))
			for try := 0; try < 50 && !w.ASes[as].HasPoP(src.City); try++ {
				as = rng.Intn(len(w.ASes))
			}
			dst = synthetic(as, src.City)
		case 5:
			c := *dst
			switch rng.Intn(3) {
			case 0:
				c.LastMileMs += 0.5 + rng.Float64()
			case 1:
				c.Loc = geo.Destination(c.Loc, rng.Float64()*360, 1+rng.Float64()*50)
			default:
				if c.Kind == world.Anchor {
					c.Kind = world.Probe
				} else {
					c.Kind = world.Anchor
				}
			}
			if src.Addr != dst.Addr {
				pairs = append(pairs, [2]*world.Host{src, dst})
			}
			dst = &c
		}
		if src.Addr != dst.Addr {
			pairs = append(pairs, [2]*world.Host{src, dst})
		}
	}
	return pairs[:n]
}

// TestRouteThroughTableMatchesDirect holds Route, BaseRTTMs, Ping and
// Traceroute to the directRoute oracle bit for bit, on the tiny and medium
// worlds: every pair of oraclePairs once against a cold skeleton table,
// then again against the table the first pass left warm. It requires each
// route shape to occur: a router outside the router table, intra-AS,
// same-city, IXP, transit and anchor-to-anchor pairs, and a changed copy of
// a host served from its original's skeleton.
func TestRouteThroughTableMatchesDirect(t *testing.T) {
	type worldCase struct {
		w     *world.World
		pairs int
	}
	worlds := []worldCase{{tw, 100_000}}
	if testing.Short() {
		worlds[0].pairs = 10_000
	} else {
		worlds = append(worlds, worldCase{world.Generate(world.MediumConfig()), 30_000})
	}
	for _, wc := range worlds {
		s := New(wc.w)
		pairs := oraclePairs(wc.w, wc.pairs, 31)
		var fallback, sameAS, sameCity, ixp, transit, direct, copies int
		for _, p := range pairs {
			src, dst := p[0], p[1]
			for _, r := range s.routeRouters(src, dst, nil) {
				if s.routerCell(r) < 0 {
					fallback++
				}
				if r.role == roleIXP {
					ixp++
				}
				if r.role == rolePeering && r.asID != src.AS && r.asID != dst.AS {
					transit++
				}
			}
			if src.AS == dst.AS {
				sameAS++
			}
			if src.City == dst.City {
				sameCity++
			}
			if src.Kind == world.Anchor && dst.Kind == world.Anchor {
				direct++
			}
			if dst.ID >= 0 && dst != wc.w.Host(dst.ID) {
				copies++
			}
		}
		for pass, name := range []string{"cold", "warm"} {
			hits := 0
			for n, p := range pairs {
				src, dst := p[0], p[1]
				if sk := s.skeletons.slot(keyOf(src, dst)).Load(); sk != nil && sk.key == keyOf(src, dst) {
					hits++
				}
				if diff := checkOracle(s, src, dst, uint64(n)); diff != "" {
					t.Fatalf("%d cities, %s table, pair %d (%+v → %+v): %s", len(wc.w.Cities), name, n, src, dst, diff)
				}
			}
			t.Logf("%d cities, %s table: %d pairs, %d skeleton hits", len(wc.w.Cities), name, len(pairs), hits)
			if pass == 1 && hits == 0 {
				t.Fatal("the warm pass never hit the skeleton table")
			}
		}
		for what, n := range map[string]int{"hops outside the router table": fallback, "intra-AS pairs": sameAS,
			"same-city pairs": sameCity, "IXP hops": ixp, "transit hops": transit,
			"anchor-to-anchor pairs": direct, "changed host copies": copies} {
			if n == 0 {
				t.Errorf("%d cities: no %s", len(wc.w.Cities), what)
			}
		}
		t.Logf("%d cities: %d hops outside the router table, %d intra-AS, %d same-city, %d IXP hops, %d transit hops, %d anchor pairs, %d copies",
			len(wc.w.Cities), fallback, sameAS, sameCity, ixp, transit, direct, copies)
	}
}

// TestSkeletonTableCollisions fills a four-slot table from every worker of
// par.For at once, so entries collide and replace each other under
// contention, and holds every answer to the oracle. Each entry left in the
// table must be the skeleton its key builds.
func TestSkeletonTableCollisions(t *testing.T) {
	s := New(tw)
	s.skeletons = newSkeletonTable(2)
	pairs := oraclePairs(tw, 4000, 77)
	diffs := make([]string, len(pairs))
	par.For(len(pairs), func(n int) {
		diffs[n] = checkOracle(s, pairs[n][0], pairs[n][1], uint64(n))
	})
	for n, d := range diffs {
		if d != "" {
			t.Fatalf("pair %d (%+v → %+v): %s", n, pairs[n][0], pairs[n][1], d)
		}
	}
	byKey := make(map[skeletonKey][2]*world.Host)
	for _, p := range pairs {
		byKey[keyOf(p[0], p[1])] = p
	}
	for i := range s.skeletons.slots {
		sk := s.skeletons.slots[i].Load()
		if sk == nil {
			t.Fatalf("slot %d empty after %d pairs", i, len(pairs))
		}
		p := byKey[sk.key]
		if want := s.buildSkeleton(p[0], p[1], sk.key); *sk != *want {
			t.Fatalf("slot %d: %+v, its key builds %+v", i, *sk, *want)
		}
	}
}
