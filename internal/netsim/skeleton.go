package netsim

import (
	"sync/atomic"

	"geoloc/internal/geo"
	"geoloc/internal/world"
)

// skeletonBits sizes each Sim's skeleton table: 1<<skeletonBits slots. A
// skeleton is 312 bytes (a 320-byte allocation), so a full table is 1.3 MB
// plus 32 KB of slots. A campaign's set-up fills 88 % of it on Tiny and all
// of it on Medium and Default.
const skeletonBits = 12

// skeletonKey is everything a route's router part depends on: the two
// hosts' ASes and cities pick the routers, and an anchor-to-anchor pair
// rides straighter cable (see adjust). The hosts' addresses, locations and
// last miles only enter the two access links and the path noise, which
// every call computes afresh.
type skeletonKey struct {
	srcAS, srcCity, dstAS, dstCity int32
	direct                         bool
}

func keyOf(src, dst *world.Host) skeletonKey {
	return skeletonKey{
		srcAS: int32(src.AS), srcCity: int32(src.City),
		dstAS: int32(dst.AS), dstCity: int32(dst.City),
		direct: src.Kind == world.Anchor && dst.Kind == world.Anchor,
	}
}

// skeletonHop is one router of a skeleton. add is the delay of the link
// into it from the previous router plus the router's processing: the
// addend a route's running sum takes at this hop. Hop 0's link starts at
// the source host and is priced per call, so its add is unused.
type skeletonHop struct {
	id   uint64
	loc  geo.Point
	add  float64
	asID int32
}

// skeleton is the part of a route the world fixes, immutable once built.
// Addends, not partial sums, are cached: a route adds them to a sum that
// starts at the source's last mile and its access link, in hop order, so
// every float is the bits a route computed link by link would get.
type skeleton struct {
	key           skeletonKey
	n             int32
	firstT, lastT geo.Trig
	hops          [maxRouters]skeletonHop
}

// skeletonTable is a lock-free direct-mapped table of skeletons. A slot
// holds at most one entry and a colliding insert replaces it. A skeleton
// is a pure function of its key, so losing or replacing one can never
// change a result — only the hit/miss counters, which are reporting-only
// and may vary with goroutine scheduling.
type skeletonTable struct {
	slots []atomic.Pointer[skeleton]
	shift uint
}

func newSkeletonTable(bits uint) skeletonTable {
	return skeletonTable{slots: make([]atomic.Pointer[skeleton], 1<<bits), shift: 64 - bits}
}

// slot picks k's slot with a multiplicative mix of its fields.
func (t *skeletonTable) slot(k skeletonKey) *atomic.Pointer[skeleton] {
	a := uint64(uint32(k.srcAS))<<32 | uint64(uint32(k.srcCity))
	b := uint64(uint32(k.dstAS))<<32 | uint64(uint32(k.dstCity))<<1
	if k.direct {
		b |= 1
	}
	h := a*0x9E3779B97F4A7C15 ^ b*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return &t.slots[(h*0x94D049BB133111EB)>>t.shift]
}

// skeleton returns the skeleton of the route between the two hosts, from
// the table or built and published.
func (s *Sim) skeleton(src, dst *world.Host) *skeleton {
	k := keyOf(src, dst)
	slot := s.skeletons.slot(k)
	if sk := slot.Load(); sk != nil && sk.key == k {
		s.m.skeletonHits.Inc()
		return sk
	}
	s.m.skeletonMiss.Inc()
	sk := s.buildSkeleton(src, dst, k)
	slot.Store(sk)
	return sk
}

// buildSkeleton places the routers between the two hosts and prices every
// router-to-router link.
func (s *Sim) buildSkeleton(src, dst *world.Host, k skeletonKey) *skeleton {
	var buf [maxRouters]routerRef
	refs := s.routeRouters(src, dst, buf[:0])
	sk := &skeleton{key: k, n: int32(len(refs))}
	var prev routerPlace
	for i, r := range refs {
		pl := s.router(r)
		h := &sk.hops[i]
		h.id, h.loc, h.asID = pl.id, pl.loc, int32(r.asID)
		if i > 0 {
			linkKm := geo.TrigDistance(prev.trig, pl.trig)
			h.add = linkKm*s.adjust(k.direct, s.cableFactor(prev.id, pl.id))/geo.TwoThirdsC + s.Cfg.HopProcessingMs
		} else {
			sk.firstT = pl.trig
		}
		prev = pl
	}
	sk.lastT = prev.trig
	return sk
}
