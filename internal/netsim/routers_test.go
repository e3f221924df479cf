package netsim

import (
	"math"
	"math/rand"
	"testing"

	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/rhash"
	"geoloc/internal/world"
)

// directRoute is computeRoute without the router table or cached trig:
// every hop's id and location come from routerID and routerLoc, and every
// link from geo.Distance.
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

// TestRouteThroughTableMatchesDirect holds computeRoute to directRoute on
// 100k random host pairs, a fifth of them with a synthetic web server (ID
// −1) homed in a random AS and city, whose gateway the table may not hold.
func TestRouteThroughTableMatchesDirect(t *testing.T) {
	pairs := 100_000
	if testing.Short() {
		pairs = 10_000
	}
	rng := rand.New(rand.NewSource(31))
	host := func() *world.Host {
		if rng.Intn(5) > 0 {
			return &tw.Hosts[rng.Intn(len(tw.Hosts))]
		}
		city := rng.Intn(len(tw.Cities))
		return &world.Host{
			ID:         -1,
			Kind:       world.WebServer,
			Addr:       ipaddr.Addr(rng.Uint32()),
			City:       city,
			AS:         rng.Intn(len(tw.ASes)),
			Loc:        geo.Destination(tw.Cities[city].Loc, rng.Float64()*360, rng.Float64()*2),
			LastMileMs: 0.1 + rng.Float64(),
		}
	}
	fallback := 0
	for n := 0; n < pairs; n++ {
		src, dst := host(), host()
		for _, r := range sim.routeRouters(src, dst, nil) {
			if sim.routerCell(r) < 0 {
				fallback++
			}
		}
		if got, want := sim.computeRoute(src, dst), directRoute(sim, src, dst); !samePath(got, want) {
			t.Fatalf("pair %d (%+v → %+v): table route %+v, direct %+v", n, src, dst, got, want)
		}
	}
	if fallback == 0 {
		t.Fatal("no hop missed the table: the fallback path never ran")
	}
	t.Logf("%d pairs, %d hops computed outside the table", pairs, fallback)
}
