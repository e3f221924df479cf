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
			return cableFactorMin + (f-cableFactorMin)*0.08
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
		cum += linkKm*adjust(factor)/geo.TwoThirdsC + hopProcessingMs
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
	return a.id == b.id && a.as == b.as && sameBits(a.loc.Lat, b.loc.Lat) && sameBits(a.loc.Lon, b.loc.Lon) &&
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
		s := New(w, nil)
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
			if want := (routerPlace{id: s.routerID(r), loc: loc, trig: geo.MakeTrig(loc), as: int32(r.asID)}); !samePlace(s.routers[i], want) {
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
	for range PingPackets {
		jitter := st.Exp(pingJitterMeanMs)
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
		jitter := st.Exp(icmpJitterMeanMs)
		if st.Bool(icmpSpikeProb) {
			jitter += math.Min(st.Exp(icmpSpikeMeanMs), icmpSpikeMaxMs)
		}
		tr.Hops[i] = TraceHop{RouterID: h.RouterID, ASID: h.ASID, RTTMs: 2*h.CumOneWayMs + jitter, Responded: st.Bool(0.95)}
	}
	tr.DstRTTMs = 2*p.OneWayMs + st.Exp(pingJitterMeanMs)
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
// a host served from its original's skeleton. It also requires route ends
// of both kinds: world hosts, whose access links come from the access
// table, and web servers (ID −1) and changed copies, computed per call.
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
		s := New(wc.w, nil)
		pairs := oraclePairs(wc.w, wc.pairs, 31)
		var fallback, sameAS, sameCity, ixp, transit, direct, copies, tabled, computed int
		for _, p := range pairs {
			src, dst := p[0], p[1]
			for _, h := range p {
				if s.hostCell(h) >= 0 {
					tabled++
				} else {
					computed++
				}
			}
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
				if s.skeletons.lookup(keyOf(src, dst), new(skeleton)) {
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
			"anchor-to-anchor pairs": direct, "changed host copies": copies,
			"route ends from the access table": tabled, "route ends computed per call": computed} {
			if n == 0 {
				t.Errorf("%d cities: no %s", len(wc.w.Cities), what)
			}
		}
		t.Logf("%d cities: %d hops outside the router table, %d intra-AS, %d same-city, %d IXP hops, %d transit hops, %d anchor pairs, %d copies, %d tabled and %d computed route ends",
			len(wc.w.Cities), fallback, sameAS, sameCity, ixp, transit, direct, copies, tabled, computed)
	}
}

// TestSkeletonTableCollisions fills a four-slot table from every worker of
// par.For at once, so entries collide, writers skip slots other writers
// hold and readers discard entries torn under them, and holds every
// answer to the oracle. Every slot left occupied must decode to exactly
// the skeleton buildSkeleton makes of its key.
func TestSkeletonTableCollisions(t *testing.T) {
	s := New(tw, nil)
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
	byKey := make(map[[2]uint64][2]*world.Host)
	for _, p := range pairs {
		a, b := keyOf(p[0], p[1]).pack()
		byKey[[2]uint64{a, b}] = p
	}
	for i := range s.skeletons.entries {
		e := &s.skeletons.entries[i]
		if v := e.seq.Load(); v == 0 || v&1 != 0 {
			t.Fatalf("slot %d not whole (seq %d) after %d pairs", i, v, len(pairs))
		}
		p, ok := byKey[[2]uint64{e.key[0].Load(), e.key[1].Load()}]
		if !ok {
			t.Fatalf("slot %d holds a key no pair has: %#x %#x", i, e.key[0].Load(), e.key[1].Load())
		}
		k := keyOf(p[0], p[1])
		var got, want skeleton
		if !s.skeletons.lookup(k, &got) || &s.skeletons.entries[i] != s.skeletons.entry(k.pack()) {
			t.Fatalf("slot %d: its key %+v does not look it up", i, k)
		}
		if !s.buildSkeleton(p[0], p[1], k.direct, &want) || got != want {
			t.Fatalf("slot %d: %+v, its key builds %+v", i, got, want)
		}
	}
}

// TestSkeletonTableEmptySlot holds a fresh table to missing the all-zero
// key (AS 0, city 0 → AS 0, city 0), whose packed words are the zero
// entry's: a zeroed entry must never match. Once published, the key hits
// and decodes to what buildSkeleton makes of it.
func TestSkeletonTableEmptySlot(t *testing.T) {
	s := New(tw, nil)
	var zero skeletonKey
	if a, b := zero.pack(); a != 0 || b != 0 {
		t.Fatalf("the zero key packs to %#x %#x", a, b)
	}
	var got skeleton
	if s.skeletons.lookup(zero, &got) {
		t.Fatalf("a fresh table hits the zero key: %+v", got)
	}
	src, dst := world.Host{Addr: 1}, world.Host{Addr: 2}
	if keyOf(&src, &dst) != zero {
		t.Fatalf("key %+v, want the zero key", keyOf(&src, &dst))
	}
	var want skeleton
	if !s.buildSkeleton(&src, &dst, false, &want) {
		t.Fatal("the zero key's route leaves the router table: AS 0 has no PoP in city 0")
	}
	s.skeletons.publish(zero, &want)
	if !s.skeletons.lookup(zero, &got) || got != want {
		t.Fatalf("after publishing, lookup gives %+v, want %+v", got, want)
	}
}

// TestSkeletonTableSize holds each Sim's table to its world's size: 8
// slots per host rounded up to a power of two, at most 2^14 — 4,096 slots
// for the 465-host Tiny world, the cap for Medium (2,628 hosts) and paper
// scale (13,024).
func TestSkeletonTableSize(t *testing.T) {
	for _, tc := range []struct {
		hosts int
		bits  uint
	}{{0, 1}, {1, 3}, {2, 4}, {465, 12}, {512, 12}, {513, 13}, {2048, 14}, {2628, 14}, {13024, 14}} {
		if got := skeletonBitsFor(tc.hosts); got != tc.bits {
			t.Errorf("%d hosts: 2^%d slots, want 2^%d", tc.hosts, got, tc.bits)
		}
	}
	if n, want := len(New(tw, nil).skeletons.entries), 1<<skeletonBitsFor(len(tw.Hosts)); n != want {
		t.Errorf("the tiny world's Sim has %d slots, want %d", n, want)
	}
}

// TestPlaceOrder holds PlaceOrder to its contract on the tiny world's
// probes and anchors, shuffled: the order is a permutation, sorted by
// (AS, city, anchor), stable (equal places keep their index order), and
// so every place's sources are contiguous.
func TestPlaceOrder(t *testing.T) {
	var srcs []*world.Host
	for _, ids := range [][]int{tw.Probes, tw.Anchors} {
		for _, id := range ids {
			srcs = append(srcs, tw.Host(id))
		}
	}
	rand.New(rand.NewSource(5)).Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
	type place struct {
		as, city int
		anchor   bool
	}
	placeOf := func(i int) place {
		return place{srcs[i].AS, srcs[i].City, srcs[i].Kind == world.Anchor}
	}
	less := func(p, q place) bool {
		if p.as != q.as {
			return p.as < q.as
		}
		if p.city != q.city {
			return p.city < q.city
		}
		return !p.anchor && q.anchor
	}

	order := PlaceOrder(srcs)
	if len(order) != len(srcs) {
		t.Fatalf("%d indices for %d sources", len(order), len(srcs))
	}
	seen := make([]bool, len(srcs))
	for _, i := range order {
		if i < 0 || i >= len(srcs) || seen[i] {
			t.Fatalf("order is not a permutation: index %d", i)
		}
		seen[i] = true
	}
	left := make(map[place]bool)
	shared := 0
	for k := 1; k < len(order); k++ {
		a, b := order[k-1], order[k]
		p, q := placeOf(a), placeOf(b)
		switch {
		case p == q:
			shared++
			if b < a {
				t.Fatalf("unstable: index %d after %d at the same place %+v", b, a, p)
			}
		case less(q, p):
			t.Fatalf("unsorted: %+v after %+v", q, p)
		default:
			left[p] = true
			if left[q] {
				t.Fatalf("place %+v is not contiguous", q)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two sources share a place: the order is not exercised")
	}
	t.Logf("%d sources, %d share the previous one's place", len(srcs), shared)
}
