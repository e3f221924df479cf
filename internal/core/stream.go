// Streaming campaign execution (DESIGN.md §3.9): synthetic /24 targets
// measured one at a time, in O(1) memory per target, so a campaign's
// scale is a config knob instead of a matrix allocation. A
// StreamCampaign never materializes its targets — each target's
// location, responsiveness, and per-VP RTTs are pure keyed-hash
// functions of (world seed, target index), the same determinism
// contract netsim follows — which is exactly what the external-merge
// compiler (dataset.CompileExternal) needs to process windows of
// targets, spill them, crash, and re-measure on resume bit-identically.
package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"geoloc/internal/cbg"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/par"
	"geoloc/internal/rhash"
)

// Salt namespaces for the stream campaign's keyed randomness.
const (
	saltStreamTarget uint64 = 0xCA09_0100 // target placement + last mile
	saltStreamPing   uint64 = 0xCA09_0101 // per-(target, VP) path behavior
	saltStreamHash   uint64 = 0xCA09_0102 // StreamCampaign identity hash
)

// DefaultVPsPerTarget is how many vantage points measure each streamed
// target: the K lowest-RTT responsive VPs, mirroring the paper's
// insight that the nearest VPs carry nearly all of CBG's constraint
// power (and keeping per-target work O(VPs) instead of O(VPs·CBG)).
const DefaultVPsPerTarget = 16

// maxVPsPerTarget bounds the selection so it fits fixed scratch.
const maxVPsPerTarget = 64

// nearPerK sizes each city's shortlist of nearest VPs in multiples of K.
// About a third of a VP's pings go unanswered and RTT order is distance
// order only up to the path factor, so 3·K nearest VPs all but always
// hold the K lowest RTTs — which is what makes the selection bound bite
// on the very first VP outside the shortlist.
const nearPerK = 3

// DefaultStreamBase is the first /24 of the synthetic target range:
// 64.0.0.0/24, far from the world allocator's 10.0.0.0/8 hosts, so
// streamed prefixes never collide with anchors or probes.
var DefaultStreamBase = ipaddr.Prefix24Of(ipaddr.Addr(64 << 24))

// minStreamBase is the lowest /24 the default base may slide down to
// when the target count does not fit above DefaultStreamBase:
// 11.0.0.0/24, the first prefix past the world allocator's 10.0.0.0/8.
// From here 16,056,320 targets fit — more than the ~14.9M routable /24s
// the replicated paper's full-IPv4 dataset covers.
var minStreamBase = ipaddr.Prefix24Of(ipaddr.Addr(11 << 24))

// StreamSpec sizes a streaming campaign.
type StreamSpec struct {
	// Targets is the number of synthetic /24 targets.
	Targets int
	// VPsPerTarget is K in the K-lowest-RTT VP selection
	// (DefaultVPsPerTarget when <= 0, capped at maxVPsPerTarget).
	VPsPerTarget int
	// Base is the first target /24 (DefaultStreamBase when zero).
	// Target t's prefix is Base + t, so streamed prefixes are strictly
	// increasing in t.
	Base ipaddr.Prefix24
}

// StreamCampaign generates measurements for Targets synthetic /24s over
// an existing campaign's sanitized vantage-point set. It implements
// dataset.Source. MeasureTarget is safe for concurrent use.
type StreamCampaign struct {
	C    *Campaign
	Spec StreamSpec

	seed uint64
	// Per-VP views, fixed at construction: measurement location
	// (reported, as in the matrix pipeline), true-location trig (RTTs
	// follow real geometry), last-mile delay, and responsiveness.
	vpLoc      []geo.Point
	vpTrig     []geo.Trig
	vpLastMile []float64
	vpResp     []float64

	// Selection bound (DESIGN.md §3.9): each VP's unit vector, and for
	// each city the nearN VPs closest to its centre — nearest first in
	// near, as a bitmap of nearWords words over VP indices in nearSet.
	vpUnit    []geo.Unit
	near      []int32
	nearSet   []uint64
	nearN     int
	nearWords int

	// VPs priced and VPs the bound skipped, over every MeasureTarget call.
	priced, pruned atomic.Int64
}

// NewStreamCampaign prepares a streaming campaign over c's VP set. The
// campaign's matrices are NOT required — only world generation and §4.3
// sanitization must have run (NewCampaign does both), which is what
// keeps setup memory independent of Spec.Targets.
func NewStreamCampaign(c *Campaign, spec StreamSpec) (*StreamCampaign, error) {
	if spec.Targets <= 0 {
		return nil, fmt.Errorf("core: stream campaign needs a positive target count, got %d", spec.Targets)
	}
	if spec.VPsPerTarget <= 0 {
		spec.VPsPerTarget = DefaultVPsPerTarget
	}
	if spec.VPsPerTarget > maxVPsPerTarget {
		spec.VPsPerTarget = maxVPsPerTarget
	}
	if spec.Base == 0 {
		spec.Base = DefaultStreamBase
		// Full-routable-IPv4 counts do not fit above the default base;
		// slide down toward minStreamBase so the paper-scale campaign
		// fits. An explicit Base is never adjusted — overflowing it is
		// a caller error, caught below.
		if need := uint64(spec.Base) + uint64(spec.Targets) - 1; need > 0x00FF_FFFF {
			if fit := int64(0x0100_0000) - int64(spec.Targets); fit >= int64(minStreamBase) {
				spec.Base = ipaddr.Prefix24(fit)
			}
		}
	}
	if last := uint64(spec.Base) + uint64(spec.Targets) - 1; last > 0x00FF_FFFF {
		return nil, fmt.Errorf("core: %d targets from base %s overflow the /24 space",
			spec.Targets, spec.Base)
	}
	s := &StreamCampaign{
		C:          c,
		Spec:       spec,
		seed:       c.W.Cfg.Seed,
		vpLoc:      make([]geo.Point, len(c.VPs)),
		vpTrig:     make([]geo.Trig, len(c.VPs)),
		vpLastMile: make([]float64, len(c.VPs)),
		vpResp:     make([]float64, len(c.VPs)),
		vpUnit:     make([]geo.Unit, len(c.VPs)),
	}
	for i, h := range c.VPs {
		s.vpLoc[i] = h.Reported
		s.vpTrig[i] = geo.MakeTrig(h.Loc)
		s.vpLastMile[i] = h.LastMileMs
		s.vpResp[i] = h.RespScore
		s.vpUnit[i] = s.vpTrig[i].Unit()
	}
	s.buildNear()
	return s, nil
}

// buildNear fills near and nearSet: per city, a bounded max-heap over
// (chord to the city centre, VP index) keeps the nearN closest VPs, and
// popping it back to front leaves them nearest first. Which VPs make a
// shortlist changes how much MeasureTarget prunes, never what it
// returns, so the cheap chord stands in for the great-circle distance.
func (s *StreamCampaign) buildNear() {
	cities := s.C.W.Cities
	s.nearN = min(nearPerK*s.Spec.VPsPerTarget, len(s.vpUnit))
	s.nearWords = (len(s.vpUnit) + 63) / 64
	s.near = make([]int32, len(cities)*s.nearN)
	s.nearSet = make([]uint64, len(cities)*s.nearWords)
	par.For(len(cities), func(ci int) {
		cu := geo.MakeTrig(cities[ci].Loc).Unit()
		var heap [nearPerK * maxVPsPerTarget]vpRTT
		n := 0
		for vp, u := range s.vpUnit {
			n = pushBounded(heap[:s.nearN], n, vpRTT{rtt: geo.ChordLowerBoundKm(u, cu), vp: int32(vp)})
		}
		near := s.near[ci*s.nearN : (ci+1)*s.nearN]
		set := s.nearSet[ci*s.nearWords : (ci+1)*s.nearWords]
		for ; n > 0; n-- {
			vp := heap[0].vp
			near[n-1] = vp
			set[vp>>6] |= 1 << (vp & 63)
			heap[0] = heap[n-1]
			siftDown(heap[:n-1], 0)
		}
	})
}

// ConfigHash canonically identifies the streaming campaign: the parent
// campaign's hash mixed with everything in the spec that changes
// measurement results.
func (s *StreamCampaign) ConfigHash() uint64 {
	return rhash.Hash(saltStreamHash, s.C.ConfigHash(),
		uint64(s.Spec.Targets), uint64(s.Spec.VPsPerTarget), uint64(s.Spec.Base))
}

// NumTargets implements dataset.Source.
func (s *StreamCampaign) NumTargets() int { return s.Spec.Targets }

// TargetPrefix returns target t's /24 (strictly increasing in t).
func (s *StreamCampaign) TargetPrefix(t int) ipaddr.Prefix24 {
	return s.Spec.Base + ipaddr.Prefix24(t)
}

// TargetLocation returns target t's synthetic true location: a city
// drawn by population-independent keyed hash, then a uniform point in
// its disk. Exposed so experiments can score streamed estimates.
func (s *StreamCampaign) TargetLocation(t int) geo.Point {
	st := rhash.New(s.seed, saltStreamTarget, uint64(t))
	city := &s.C.W.Cities[st.Intn(len(s.C.W.Cities))]
	bearing := st.Range(0, 360)
	dist := city.RadiusKm * math.Sqrt(st.Float64())
	return geo.Destination(city.Loc, bearing, dist)
}

// vpRTT is one candidate measurement during VP selection.
type vpRTT struct {
	rtt float64
	vp  int32
}

// MeasureTarget implements dataset.Source: it synthesizes target t and
// returns its /24 plus the K-lowest-RTT responsive measurements, in VP
// order. RTTs are true-geometry propagation at two-thirds c inflated by
// a keyed path factor (≥ 1, so CBG constraint disks always contain the
// target) plus both last miles and keyed queueing jitter — the same
// shape netsim produces, at a fraction of the cost. A target whose city
// roll lands on a BadLastMile city reproduces §5.1.5's inflated access
// delays. Pure in t: repeated calls, any order, any goroutine, same
// bytes.
//
// The selection is a branch-and-bound. The K smallest candidates under
// the total order (rtt, vp) are one set whatever order the VPs are
// visited in, and each (target, VP) pair draws from its own keyed
// stream, so MeasureTarget prices the city's nearest VPs first and then
// skips every VP whose cheapest possible RTT (rttLowerBound) already
// exceeds the worst of the K it holds — before the hash, the haversine,
// the asin and the log that pricing it would cost.
func (s *StreamCampaign) MeasureTarget(t int, buf []cbg.Measurement) (ipaddr.Prefix24, []cbg.Measurement) {
	st := rhash.New(s.seed, saltStreamTarget, uint64(t))
	ci := st.Intn(len(s.C.W.Cities))
	city := &s.C.W.Cities[ci]
	bearing := st.Range(0, 360)
	dist := city.RadiusKm * math.Sqrt(st.Float64())
	loc := geo.Destination(city.Loc, bearing, dist)
	lastMile := st.Range(0.2, 4.0)
	if city.BadLastMile {
		lastMile += st.Range(4, 12)
	}
	tt := geo.MakeTrig(loc)
	tu := tt.Unit()

	// Keep the K lowest-RTT responsive VPs in a fixed-size max-heap
	// (worst candidate at the root), then emit them in VP order. Ties
	// break toward the lower VP index so selection is total-ordered.
	// Once the heap holds K, a VP is priced only if its lower bound does
	// not strictly exceed the root: a bound equal to the root may still
	// win the tie on VP index. Visiting order: the city's shortlist,
	// nearest first, then every other VP by index.
	k := s.Spec.VPsPerTarget
	var heap [maxVPsPerTarget]vpRTT
	n, priced := 0, 0
	near := s.near[ci*s.nearN : (ci+1)*s.nearN]
	inNear := s.nearSet[ci*s.nearWords : (ci+1)*s.nearWords]
	for i := 0; i < len(near)+len(s.vpUnit); i++ {
		vp := i - len(near)
		if i < len(near) {
			vp = int(near[i])
		} else if inNear[vp>>6]>>(vp&63)&1 != 0 {
			continue // had its turn on the shortlist
		}
		if n == k && rttLowerBound(s.vpUnit[vp], tu, lastMile, s.vpLastMile[vp]) > heap[0].rtt {
			continue
		}
		priced++
		if c, ok := s.price(t, vp, tt, lastMile); ok {
			n = pushBounded(heap[:k], n, c)
		}
	}
	s.priced.Add(int64(priced))
	s.pruned.Add(int64(len(s.vpUnit) - priced))

	// Selection sort by VP index: n ≤ 64, and measurement order must be
	// ascending-VP like every other pipeline.
	sel := heap[:n]
	for i := 1; i < n; i++ {
		c := sel[i]
		j := i - 1
		for j >= 0 && sel[j].vp > c.vp {
			sel[j+1] = sel[j]
			j--
		}
		sel[j+1] = c
	}
	buf = buf[:0]
	for _, c := range sel {
		buf = append(buf, cbg.Measurement{VP: s.vpLoc[c.vp], RTTMs: c.rtt})
	}
	return s.TargetPrefix(t), buf
}

// minInflate is the floor of the keyed path factor price draws.
const minInflate = 1.05

// pathRTT is the stream campaign's RTT model short of its jitter, shared
// by price and rttLowerBound so both evaluate one expression tree.
func pathRTT(distKm, inflate, lastMile, vpLastMile float64) float64 {
	return geo.DistanceToRTTMs(distKm, geo.TwoThirdsC)*inflate + lastMile + vpLastMile
}

// price draws target t's measurement from vp; ok is false when the VP
// does not answer this target.
func (s *StreamCampaign) price(t, vp int, tt geo.Trig, lastMile float64) (c vpRTT, ok bool) {
	pv := rhash.New(s.seed, saltStreamPing, uint64(t), uint64(vp))
	if !pv.Bool(s.vpResp[vp]) {
		return vpRTT{}, false
	}
	d := geo.TrigDistance(s.vpTrig[vp], tt)
	inflate := minInflate + 0.9*pv.Float64()
	rtt := pathRTT(d, inflate, lastMile, s.vpLastMile[vp]) + pv.Exp(0.3)
	return vpRTT{rtt: rtt, vp: int32(vp)}, true
}

// rttLowerBound never exceeds the RTT price would return for the VP with
// unit vector vu and last mile vpLastMile. It is price's own expression
// with each input at its floor — the chord bound for the distance
// (geo.ChordLowerBoundKm ≤ TrigDistance), minInflate for the path factor
// (0.9·u ≥ 0), no jitter (−0.3·log u ≥ 0 for u < 1) — and every
// operation in that expression is nondecreasing in those inputs and
// rounds to nearest, which preserves order.
func rttLowerBound(vu, tu geo.Unit, lastMile, vpLastMile float64) float64 {
	return pathRTT(geo.ChordLowerBoundKm(vu, tu), minInflate, lastMile, vpLastMile)
}

// PricedPruned reports how many VPs MeasureTarget has priced and how
// many the selection bound let it skip, summed over every call so far:
// priced + pruned = calls × VPs.
func (s *StreamCampaign) PricedPruned() (priced, pruned int64) {
	return s.priced.Load(), s.pruned.Load()
}

// pushBounded offers c to the bounded max-heap h[:n] of capacity len(h)
// and returns the new size: c is added while there is room and replaces
// the root when it orders below it.
func pushBounded(h []vpRTT, n int, c vpRTT) int {
	switch {
	case n < len(h):
		h[n] = c
		n++
		siftUp(h[:n], n-1)
	case lessVPRTT(c, h[0]):
		h[0] = c
		siftDown(h, 0)
	}
	return n
}

// lessVPRTT orders candidates by RTT then VP index; the heap keeps the
// *greatest* under this order at the root so the worst is evicted first.
func lessVPRTT(a, b vpRTT) bool {
	if a.rtt != b.rtt {
		return a.rtt < b.rtt
	}
	return a.vp < b.vp
}

func siftUp(h []vpRTT, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !lessVPRTT(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []vpRTT, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h) && lessVPRTT(h[big], h[l]) {
			big = l
		}
		if r < len(h) && lessVPRTT(h[big], h[r]) {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// Cities returns the world's city count (diagnostics for experiment
// reports).
func (s *StreamCampaign) Cities() int { return len(s.C.W.Cities) }
