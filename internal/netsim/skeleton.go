package netsim

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"geoloc/internal/geo"
	"geoloc/internal/world"
)

// skeletonBitsFor sizes a Sim's skeleton table from its world: the
// smallest power of two of at least skeletonSlotsPerHost slots per host,
// capped at 1<<maxSkeletonBits. Entries are 96 bytes inline, allocated
// once by New. A miss builds the skeleton on the caller's stack and
// publishes it in place, so the table allocates nothing after New. A
// skeleton is a pure function of its key, so the size moves hit and miss
// counts, never a result.
//
// Both numbers were measured on analysis-suite, where chaos keeps five
// Tiny Sims live beside the Medium one. The cap: one size for every world
// at 2^13, 2^14, 2^15 and 2^16 slots read peak RSS 55–56, 57–58, 65 and
// 86–88 MB, so 2^14 (1.5 MB) is the largest that does not raise it;
// Medium (2,628 hosts) and paper-scale worlds get it. The ratio: a Tiny
// world (465 hosts) at 4, 8 and 16 slots per host gets 2^11, 2^12 and
// 2^13 slots, chaos's hit rate reads 64.7, 68.1 and 73.2 % (77.8 at
// 2^14), and peak RSS 47.6–50.4, 48.1–49.6 and 54.0–54.4 MB, where every
// Sim at 2^14 reads 62.1–64.9: with the street-level scratch the pass
// makes so little garbage that the live Tiny tables set the heap goal.
// 8 keeps the lower RSS with the better hit rate
// (results/analysis-pass.txt).
const (
	skeletonSlotsPerHost = 8
	maxSkeletonBits      = 14
)

func skeletonBitsFor(hosts int) uint {
	return min(uint(bits.Len(uint(max(hosts*skeletonSlotsPerHost, 2)-1))), maxSkeletonBits)
}

// skeletonKey is everything a route's router part depends on: the two
// hosts' ASes and cities pick the routers, and an anchor-to-anchor pair
// rides straighter cable (see adjust). The hosts' addresses, locations and
// last miles only enter the two access links, which the access table
// prices per host, and the path noise, which every call computes afresh.
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

// pack folds k into two words, one per end; the direct flag takes the
// low bit of the second. AS and city IDs are non-negative and far below
// 1<<31, so distinct keys pack to distinct words.
func (k skeletonKey) pack() (a, b uint64) {
	a = uint64(uint32(k.srcAS))<<32 | uint64(uint32(k.srcCity))
	b = uint64(uint32(k.dstAS))<<32 | uint64(uint32(k.dstCity))<<1
	if k.direct {
		b |= 1
	}
	return a, b
}

// skeleton is the part of a route the world fixes, held on the stack of
// the call that walks the route. cells[i] is hop i's cell in the router
// table, or -1 for a router off the table (a gateway in a city its AS has
// no PoP in: the end of a route to an ephemeral web server, say). adds[i]
// is the delay of the link into hop i from the previous router plus the
// router's processing: the addend a route's running sum takes at this
// hop. Hop 0's link starts at the source host and is the host's access
// link, so adds[0] is unused. Addends, not partial sums, are kept: a
// route adds them to a sum that starts at the source's last mile and its
// access link, in hop order, so every float is the bits a route computed
// link by link would get.
type skeleton struct {
	n      int
	direct bool
	cells  [maxRouters]int32
	adds   [maxRouters]float64
}

// skeletonEntry is one slot of the table: a skeleton inline, under a
// sequence lock. seq is 0 while the slot was never written, odd while a
// writer fills it, and even and non-zero once an entry is whole. Every
// field is an atomic word, so a reader racing a writer reads torn data
// but never races; it then sees seq change and discards what it read.
type skeletonEntry struct {
	seq   atomic.Uint32
	n     atomic.Uint32
	key   [2]atomic.Uint64
	cells [maxRouters]atomic.Int32
	adds  [maxRouters]atomic.Uint64 // float64 bits
}

// skeletonTable is a lock-free direct-mapped table of skeletons. A slot
// holds at most one entry and a colliding publish replaces it. A skeleton
// is a pure function of its key, so a reader that misses on a slot a
// writer holds, or a writer that skips a slot another writer holds, can
// never change a result — only the hit/miss counters, which are
// reporting-only and may vary with goroutine scheduling.
type skeletonTable struct {
	entries []skeletonEntry
	shift   uint
}

func newSkeletonTable(bits uint) skeletonTable {
	return skeletonTable{entries: make([]skeletonEntry, 1<<bits), shift: 64 - bits}
}

// entry picks the slot of the key packed to a, b with a multiplicative mix.
func (t *skeletonTable) entry(a, b uint64) *skeletonEntry {
	h := a*0x9E3779B97F4A7C15 ^ b*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return &t.entries[(h*0x94D049BB133111EB)>>t.shift]
}

// lookup copies k's skeleton into sk when k's slot holds a whole entry
// for k, and reports whether it did.
func (t *skeletonTable) lookup(k skeletonKey, sk *skeleton) bool {
	a, b := k.pack()
	e := t.entry(a, b)
	v := e.seq.Load()
	if v == 0 || v&1 != 0 || e.key[0].Load() != a || e.key[1].Load() != b {
		return false
	}
	sk.direct = k.direct
	sk.n = int(e.n.Load())
	for i := 0; i < sk.n; i++ {
		sk.cells[i] = e.cells[i].Load()
		sk.adds[i] = math.Float64frombits(e.adds[i].Load())
	}
	return e.seq.Load() == v
}

// publish writes sk into k's slot, unless another writer holds the slot.
func (t *skeletonTable) publish(k skeletonKey, sk *skeleton) {
	a, b := k.pack()
	e := t.entry(a, b)
	v := e.seq.Load()
	if v&1 != 0 || !e.seq.CompareAndSwap(v, v+1) {
		return
	}
	e.key[0].Store(a)
	e.key[1].Store(b)
	e.n.Store(uint32(sk.n))
	for i := 0; i < sk.n; i++ {
		e.cells[i].Store(sk.cells[i])
		e.adds[i].Store(math.Float64bits(sk.adds[i]))
	}
	// After 2³¹ publishes the count wraps to 0 and the slot reads as
	// empty until the next one: a miss, never a wrong hit.
	e.seq.Store(v + 2)
}

// skeleton fills sk with the skeleton of the route between the two hosts,
// from the table or built, and published when every router is in the
// router table.
func (s *Sim) skeleton(src, dst *world.Host, sk *skeleton) {
	k := keyOf(src, dst)
	if s.skeletons.lookup(k, sk) {
		s.m.skeletonHits.Inc()
		return
	}
	s.m.skeletonMiss.Inc()
	if s.buildSkeleton(src, dst, k.direct, sk) {
		s.skeletons.publish(k, sk)
	}
}

// buildSkeleton places the routers between the two hosts into sk and
// prices every router-to-router link, on straighter cable when direct. It
// reports whether every router was in the router table: a skeleton with a
// router off it is not published, since its cells cannot name that
// router.
func (s *Sim) buildSkeleton(src, dst *world.Host, direct bool, sk *skeleton) (tabled bool) {
	var buf [maxRouters]routerRef
	refs := s.routeRouters(src, dst, buf[:0])
	sk.n, sk.direct = len(refs), direct
	tabled = true
	var prev routerPlace
	for i, r := range refs {
		c := s.routerCell(r)
		var pl routerPlace
		if c >= 0 {
			pl = s.routers[c]
		} else {
			pl, tabled = s.computePlace(r), false
		}
		sk.cells[i], sk.adds[i] = int32(c), 0
		if i > 0 {
			linkKm := geo.TrigDistance(prev.trig, pl.trig)
			sk.adds[i] = linkKm*s.adjust(direct, s.cableFactor(prev.id, pl.id))/geo.TwoThirdsC + s.Cfg.HopProcessingMs
		}
		prev = pl
	}
	return tabled
}

// hop returns the place of the route's i-th router: its router-table
// cell, or for a router off the table, computed from the route's router
// sequence again.
func (s *Sim) hop(sk *skeleton, i int, src, dst *world.Host) routerPlace {
	if c := sk.cells[i]; c >= 0 {
		return s.routers[c]
	}
	return s.offTableHop(i, src, dst)
}

// offTableHop is hop's fallback, kept out of line so that hop inlines.
func (s *Sim) offTableHop(i int, src, dst *world.Host) routerPlace {
	var buf [maxRouters]routerRef
	return s.computePlace(s.routeRouters(src, dst, buf[:0])[i])
}

// PlaceOrder returns the indices of srcs ordered by the part of a skeleton
// key a source fixes — AS, city, and whether it is an anchor — with ties
// in index order. A fan that measures one source's row per item walks its
// sources in this order so that consecutive rows, which par.For hands to
// one worker in contiguous chunks, reuse each other's skeletons instead of
// evicting them. Which row runs when never changes a result.
func PlaceOrder(srcs []*world.Host) []int {
	order := make([]int, len(srcs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		x, y := srcs[a], srcs[b]
		return cmp.Or(cmp.Compare(x.AS, y.AS), cmp.Compare(x.City, y.City),
			cmp.Compare(b2i(x.Kind == world.Anchor), b2i(y.Kind == world.Anchor)), cmp.Compare(a, b))
	})
	return order
}
