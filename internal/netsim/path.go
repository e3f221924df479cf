package netsim

import (
	"math"

	"geoloc/internal/geo"
	"geoloc/internal/rhash"
	"geoloc/internal/world"
)

// PathHop is one router on a simulated forwarding path.
type PathHop struct {
	RouterID uint64
	Loc      geo.Point
	ASID     int
	// CumOneWayMs is the one-way delay from the source host up to and
	// including this router (source last mile, link propagation, per-hop
	// processing) with no measurement jitter.
	CumOneWayMs float64
}

// Path is a simulated forwarding path between two hosts.
type Path struct {
	Hops []PathHop
	// OneWayMs is the total source-to-destination one-way delay, including
	// both last miles, with no measurement jitter.
	OneWayMs float64
}

// maxRouters is the longest router sequence routeRouters returns.
const maxRouters = 6

// routeRouters appends the router sequence between the two hosts to refs.
// The sequence is deterministic per host pair and symmetric in structure
// (destination-based routing with symmetric last links, which is the
// assumption appendix B of the paper discusses).
func (s *Sim) routeRouters(src, dst *world.Host, refs []routerRef) []routerRef {
	w := s.W
	refs = append(refs, routerRef{asID: src.AS, city: src.City, role: roleGateway})
	if src.AS == dst.AS {
		if src.City == dst.City {
			return refs
		}
		hub := w.ASes[src.AS].Hub
		detour := hub != src.City && hub != dst.City &&
			rhash.UnitFloat(w.Cfg.Seed, rhash.HashString("intra"),
				uint64(src.AS), uint64(min(src.City, dst.City)), uint64(max(src.City, dst.City))) < intraASHubDetourProb
		if detour {
			refs = append(refs, routerRef{asID: src.AS, city: hub, role: roleBackbone})
		}
		return append(refs, routerRef{asID: src.AS, city: dst.City, role: roleGateway})
	}

	a, b := &w.ASes[src.AS], &w.ASes[dst.AS]
	// Local IXP peering when both ASes are present in one IXP city.
	if src.City == dst.City && w.Cities[src.City].HasIXP && a.HasPoP(src.City) && b.HasPoP(src.City) {
		return append(refs,
			routerRef{asID: -1, city: src.City, role: roleIXP},
			routerRef{asID: dst.AS, city: dst.City, role: roleGateway})
	}

	// Direct peering in the common PoP city minimizing the total detour.
	// All four routers are always present (even when the peering city is the
	// source or destination city) so the path is structurally symmetric.
	// Inter-city paths additionally traverse each metro's shared ingress
	// (the carrier hotel every AS's traffic converges through): this is the
	// router that traceroutes toward nearby destinations have in common, and
	// therefore the "last common hop" the street level technique subtracts
	// RTTs at.
	if x, ok := s.bestPeeringCity(a, b, src.City, dst.City); ok {
		if src.City != dst.City {
			refs = append(refs, routerRef{asID: -2, city: src.City, role: roleMetro})
		}
		refs = append(refs,
			routerRef{asID: src.AS, city: x, role: rolePeering},
			routerRef{asID: dst.AS, city: x, role: rolePeering})
		if src.City != dst.City {
			refs = append(refs, routerRef{asID: -2, city: dst.City, role: roleMetro})
		}
		return append(refs, routerRef{asID: dst.AS, city: dst.City, role: roleGateway})
	}

	// No direct peering: transit through a deterministic tier-1 provider.
	ti := int(rhash.Hash(w.Cfg.Seed, rhash.HashString("transit"),
		uint64(min(src.AS, dst.AS)), uint64(max(src.AS, dst.AS))) % uint64(len(s.tier1)))
	t1 := s.tier1[ti]
	entry := s.nearestT1PoP[ti][src.City]
	exit := s.nearestT1PoP[ti][dst.City]
	if src.City != dst.City {
		refs = append(refs, routerRef{asID: -2, city: src.City, role: roleMetro})
	}
	refs = append(refs, routerRef{asID: t1, city: entry, role: rolePeering})
	if exit != entry {
		refs = append(refs, routerRef{asID: t1, city: exit, role: rolePeering})
	}
	if src.City != dst.City {
		refs = append(refs, routerRef{asID: -2, city: dst.City, role: roleMetro})
	}
	return append(refs, routerRef{asID: dst.AS, city: dst.City, role: roleGateway})
}

// bestPeeringCity returns the common PoP city of a and b minimizing the
// src→X→dst detour, and whether the ASes share any usable peering city.
// Cities flagged BadLastMile have no local interconnection fabric and are
// skipped as peering points: traffic between two ASes in such a city
// trombones through the next common PoP, which is how a target can sit
// kilometres from a probe yet see a multi-millisecond RTT (§5.1.5).
func (s *Sim) bestPeeringCity(a, b *world.AS, srcCity, dstCity int) (int, bool) {
	w := s.W
	srcT, dstT := s.cityTrig[srcCity], s.cityTrig[dstCity]
	best, bestCost := -1, math.Inf(1)
	i, j := 0, 0
	for i < len(a.PoPs) && j < len(b.PoPs) {
		switch {
		case a.PoPs[i] < b.PoPs[j]:
			i++
		case a.PoPs[i] > b.PoPs[j]:
			j++
		default:
			x := a.PoPs[i]
			i++
			j++
			if w.Cities[x].BadLastMile {
				continue
			}
			cost := geo.TrigDistance(srcT, s.cityTrig[x]) + geo.TrigDistance(s.cityTrig[x], dstT)
			if cost < bestCost {
				best, bestCost = x, cost
			}
		}
	}
	return best, best >= 0
}

// Route returns the full simulated path between two hosts, including the
// cumulative one-way delay at each hop. Identical host pairs yield
// identical paths. The routers and the links between them come from the
// pair's skeleton; only the two access links and the path noise depend on
// the hosts themselves.
func (s *Sim) Route(src, dst *world.Host) Path {
	var sk skeleton
	cum, oneWay := s.trip(src, dst, &sk)
	if sk.n == 0 {
		return Path{OneWayMs: oneWay}
	}
	hops := make([]PathHop, sk.n)
	for i := range hops {
		pl := s.hop(&sk, i, src, dst)
		hops[i] = PathHop{RouterID: pl.id, Loc: pl.loc, ASID: int(pl.as), CumOneWayMs: cum[i]}
	}
	return Path{Hops: hops, OneWayMs: oneWay}
}

// trip walks the route between two hosts without building its hops. It
// fills sk with the route's skeleton (no hops from a host to itself) and
// returns the cumulative one-way delay up to each of its routers and the
// total one-way delay. The two access links and the hosts' trig come from
// the access table, so the path noise's haversine is the only one a route
// pays.
func (s *Sim) trip(src, dst *world.Host, sk *skeleton) (cum [maxRouters]float64, oneWay float64) {
	if src.Addr == dst.Addr {
		sk.n = 0
		return cum, 0.02
	}
	s.skeleton(src, dst, sk)
	d := b2i(sk.direct)
	sa, da := s.access(src), s.access(dst)
	c := src.LastMileMs
	c += sa.ms[d] + hopProcessingMs
	cum[0] = c
	for i := 1; i < sk.n; i++ {
		c += sk.adds[i]
		cum[i] = c
	}
	oneWay = c + da.ms[d] + dst.LastMileMs
	oneWay += s.pathNoiseKm(src, dst, geo.TrigDistance(sa.trig, da.trig))
	return cum, oneWay
}

// adjust returns the cable factor of a link whose drawn factor is f. On a
// direct (anchor-to-anchor) path it shrinks toward cableFactorMin:
// datacenter-to-datacenter traffic rides direct backbone waves with little
// of the access-side meandering ordinary paths have.
func (s *Sim) adjust(direct bool, f float64) float64 {
	if direct {
		return cableFactorMin + (f-cableFactorMin)*0.08
	}
	return f
}

// pathNoiseKm is the persistent extra one-way delay of this host pair, d km
// apart: exponentially distributed, deterministic, and symmetric. It
// attaches to the destination access segment, so traceroute hop RTTs do not
// include it (they measure only up to the routers).
func (s *Sim) pathNoiseKm(src, dst *world.Host, d float64) float64 {
	// Metro paths are nearly clean; beyond metro range every path carries a
	// persistent extra delay drawn uniformly from a bounded band around the
	// configured mean. The band is bounded (rather than heavy-tailed) so
	// that sparse-VP CBG degrades to the paper's ~29 km median without
	// producing a runaway error tail.
	scale := math.Min(1, d/60)
	// Well-connected datacenter hosts (anchors) sit behind cleaner transit
	// than access hosts; paths between two anchors carry far less
	// persistent congestion than paths ending in an access network.
	scale *= hostNoiseFactor(src) * hostNoiseFactor(dst)
	lo, hi := uint64(src.Addr), uint64(dst.Addr)
	if lo > hi {
		lo, hi = hi, lo
	}
	u := rhash.UnitFloat(s.W.Cfg.Seed, rhash.HashString("pathnoise"), lo, hi)
	m := pathNoiseMeanMs // a variable: the products round as float64 math
	return scale * (0.2*m + 1.6*m*u)
}

func hostNoiseFactor(h *world.Host) float64 {
	if h.Kind == world.Anchor {
		return 0.15
	}
	return 1
}

// BaseRTTMs is the jitter-free round-trip time between two hosts.
func (s *Sim) BaseRTTMs(src, dst *world.Host) float64 {
	var sk skeleton
	_, oneWay := s.trip(src, dst, &sk)
	return 2 * oneWay
}
