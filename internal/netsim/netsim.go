// Package netsim simulates the Internet's data plane over a generated
// world: AS-level routing through city points of presence, propagation
// delay at two-thirds of the speed of light over non-geodesic cable paths,
// per-hop processing, last-mile delay, per-measurement jitter, and the ICMP
// control-plane noise that makes traceroute hop RTTs untrustworthy.
//
// The delay model is constructed so that the speed-of-Internet invariant
// holds for truthfully-located hosts: an RTT between two hosts is never
// small enough to imply a propagation speed above 2/3c over the great
// circle between them. CBG constraints derived from these measurements are
// therefore always sound, exactly as on the real Internet — while path
// inflation, detours and jitter provide the slack that limits accuracy.
package netsim

import (
	"math"
	"slices"

	"geoloc/internal/faults"
	"geoloc/internal/geo"
	"geoloc/internal/par"
	"geoloc/internal/rhash"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

// The delay model's parameters. They are typed so that an expression over
// two of them folds in float64, as the same arithmetic on variables does:
// cableFactorMax − cableFactorMin is 0.74999999999999977796, not 0.75.
const (
	// hopProcessingMs is the one-way per-router forwarding delay.
	hopProcessingMs float64 = 0.02
	// cableFactorMin/Max bound the deterministic per-link ratio between
	// cable length and great-circle distance.
	cableFactorMin float64 = 1.55
	cableFactorMax float64 = 2.3
	// pingJitterMeanMs is the mean of the exponential per-packet jitter on
	// echo replies; pings take the minimum over PingPackets packets.
	pingJitterMeanMs float64 = 0.08
	// PingPackets is the number of packets per ping measurement (RIPE
	// Atlas default is 3).
	PingPackets int = 3
	// icmpJitterMeanMs is the mean extra delay on router-generated ICMP
	// time-exceeded responses (control-plane processing).
	icmpJitterMeanMs float64 = 0.8
	// icmpSpikeProb, icmpSpikeMeanMs and icmpSpikeMaxMs model routers that
	// deprioritize ICMP generation: with the given probability a hop
	// response gains an exponential extra delay (mean icmpSpikeMeanMs,
	// capped at icmpSpikeMaxMs).
	icmpSpikeProb   float64 = 0.25
	icmpSpikeMeanMs float64 = 1.8
	icmpSpikeMaxMs  float64 = 9
	// intraASHubDetourProb is the probability an intra-AS inter-city path
	// detours through the AS hub instead of following the direct backbone.
	intraASHubDetourProb float64 = 0.4
	// pathNoiseMeanMs is the mean of the persistent per-path extra one-way
	// delay (stable per host pair). It models lasting congestion and
	// routing oddities; its heterogeneity is what keeps CBG with few
	// vantage points (the 723 anchors) an order of magnitude less accurate
	// than CBG with 10k probes, as in the paper (median 29 km vs 8 km): a
	// dense VP set almost always contains a low-noise path to the target,
	// a sparse one does not.
	pathNoiseMeanMs float64 = 1.2
)

// Sim is a data-plane simulator bound to one world.
type Sim struct {
	W *world.World
	// Faults, when non-nil and enabled, injects packet loss, truncated
	// traceroutes and extra hop silence into measurements. Fault draws use
	// label namespaces disjoint from the base delay model, so a disabled
	// profile reproduces the fault-free simulator bit-for-bit and an
	// enabled one perturbs only what it drops, never the surviving RTTs.
	Faults *faults.Profile

	tier1 []int // AS IDs of tier-1 providers
	// nearestT1PoP[i][city] is tier-1 i's closest PoP city to the given city.
	nearestT1PoP [][]int

	// routers holds the place of every router the world fixes, computed
	// once: per AS from asCell[as], a backbone cell at its hub, then a
	// gateway and a peering cell per PoP, in PoP order; from cityCell, an
	// IXP and a metro cell per city.
	routers  []routerPlace
	asCell   []int32
	cityCell int
	// cityTrig caches each city centre's trig for bestPeeringCity.
	cityTrig []geo.Trig
	// hosts holds every world host's access link, by host ID — see access.
	hosts []access

	// skeletons holds the router part of recently walked routes, keyed by
	// what fixes it — see skeletonTable.
	skeletons skeletonTable
	m         simMeters
}

// simMeters holds the simulator's instrumentation handles, resolved once
// at construction against the registry New is handed (nil handles, each
// update a nil check, when it is nil).
type simMeters struct {
	pings           *telemetry.Counter
	pingPacketsLost *telemetry.Counter
	traceroutes     *telemetry.Counter
	traceTruncated  *telemetry.Counter
	skeletonHits    *telemetry.Counter
	skeletonMiss    *telemetry.Counter
}

func newSimMeters(reg *telemetry.Registry) simMeters {
	return simMeters{
		pings:           reg.Counter("netsim.pings"),
		pingPacketsLost: reg.Counter("netsim.ping_packets_lost"),
		traceroutes:     reg.Counter("netsim.traceroutes"),
		traceTruncated:  reg.Counter("netsim.traceroutes_truncated"),
		skeletonHits:    reg.Counter("netsim.route_skeleton_hits"),
		skeletonMiss:    reg.Counter("netsim.route_skeleton_misses"),
	}
}

// New builds a simulator over the world, metering
// into reg (nil meters nothing).
func New(w *world.World, reg *telemetry.Registry) *Sim {
	s := &Sim{W: w, skeletons: newSkeletonTable(skeletonBitsFor(len(w.Hosts))), m: newSimMeters(reg)}
	for i := range w.ASes {
		if isTier1(w, i) {
			s.tier1 = append(s.tier1, i)
		}
	}
	if len(s.tier1) == 0 {
		// Degenerate tiny worlds: promote the widest AS to transit duty.
		widest, max := 0, -1
		for i := range w.ASes {
			if len(w.ASes[i].PoPs) > max {
				widest, max = i, len(w.ASes[i].PoPs)
			}
		}
		s.tier1 = []int{widest}
	}
	s.nearestT1PoP = make([][]int, len(s.tier1))
	for i, asID := range s.tier1 {
		pops := w.ASes[asID].PoPs
		s.nearestT1PoP[i] = make([]int, len(w.Cities))
		for city := range w.Cities {
			best, bestD := pops[0], math.Inf(1)
			for _, p := range pops {
				if d := geo.Distance(w.Cities[city].Loc, w.Cities[p].Loc); d < bestD {
					best, bestD = p, d
				}
			}
			s.nearestT1PoP[i][city] = best
		}
	}
	s.cityTrig = make([]geo.Trig, len(w.Cities))
	for i := range w.Cities {
		s.cityTrig[i] = geo.MakeTrig(w.Cities[i].Loc)
	}
	s.placeRouters()
	s.placeHosts()
	return s
}

func isTier1(w *world.World, asID int) bool {
	return w.ASes[asID].Cat.String() == "Tier-1"
}

// routerRef identifies a simulated router: a (AS, city, role) tuple.
type routerRef struct {
	asID, city int
	role       uint8
}

// Router roles.
const (
	roleGateway uint8 = iota
	rolePeering
	roleBackbone
	roleIXP
	roleMetro
)

// RouterID is the stable 64-bit identifier of a simulated router.
func (s *Sim) routerID(r routerRef) uint64 {
	return rhash.Hash(s.W.Cfg.Seed, rhash.HashString("router"),
		uint64(r.asID), uint64(r.city), uint64(r.role))
}

// routerLoc places a router deterministically near its city centre.
func (s *Sim) routerLoc(r routerRef) geo.Point {
	c := &s.W.Cities[r.city]
	id := s.routerID(r)
	brng := 360 * rhash.UnitFloat(id, 1)
	dist := 2 * rhash.UnitFloat(id, 2)
	return geo.Destination(c.Loc, brng, dist)
}

// routerPlace is a router's identity, AS and location, with the
// location's trig for the link distances (TrigDistance is Distance bit
// for bit).
type routerPlace struct {
	id   uint64
	loc  geo.Point
	trig geo.Trig
	as   int32
}

// placeRouters fills the router table, one AS or one city per par unit,
// each writing only its own cells.
func (s *Sim) placeRouters() {
	w := s.W
	s.asCell = make([]int32, len(w.ASes))
	n := 0
	for i := range w.ASes {
		s.asCell[i] = int32(n)
		n += 1 + 2*len(w.ASes[i].PoPs)
	}
	s.cityCell = n
	s.routers = make([]routerPlace, n+2*len(w.Cities))
	par.For(len(w.ASes), func(as int) {
		cells := s.routers[s.asCell[as]:]
		cells[0] = s.computePlace(routerRef{asID: as, city: w.ASes[as].Hub, role: roleBackbone})
		for k, city := range w.ASes[as].PoPs {
			cells[1+2*k] = s.computePlace(routerRef{asID: as, city: city, role: roleGateway})
			cells[2+2*k] = s.computePlace(routerRef{asID: as, city: city, role: rolePeering})
		}
	})
	par.For(len(w.Cities), func(city int) {
		cells := s.routers[s.cityCell+2*city:]
		cells[0] = s.computePlace(routerRef{asID: -1, city: city, role: roleIXP})
		cells[1] = s.computePlace(routerRef{asID: -2, city: city, role: roleMetro})
	})
}

// router returns r's place: from the table when the world fixes it,
// computed otherwise (a gateway in a city its AS has no PoP in, say).
func (s *Sim) router(r routerRef) routerPlace {
	if i := s.routerCell(r); i >= 0 {
		return s.routers[i]
	}
	return s.computePlace(r)
}

// computePlace derives r's place from routerID and routerLoc.
func (s *Sim) computePlace(r routerRef) routerPlace {
	loc := s.routerLoc(r)
	return routerPlace{id: s.routerID(r), loc: loc, trig: geo.MakeTrig(loc), as: int32(r.asID)}
}

// routerCell returns r's cell in the router table, or -1.
func (s *Sim) routerCell(r routerRef) int {
	switch r.role {
	case roleIXP:
		return s.cityCell + 2*r.city
	case roleMetro:
		return s.cityCell + 2*r.city + 1
	}
	a := &s.W.ASes[r.asID]
	base := int(s.asCell[r.asID])
	if r.role == roleBackbone {
		if r.city == a.Hub {
			return base
		}
		return -1
	}
	k, ok := slices.BinarySearch(a.PoPs, r.city)
	if !ok {
		return -1
	}
	return base + 1 + 2*k + int(r.role-roleGateway)
}

// cableFactor is the deterministic cable-vs-geodesic inflation of a link.
func (s *Sim) cableFactor(a, b uint64) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	u := rhash.UnitFloat(s.W.Cfg.Seed, rhash.HashString("cable"), lo, hi)
	return cableFactorMin + (cableFactorMax-cableFactorMin)*u
}
