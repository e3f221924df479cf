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
	"strconv"
	"sync/atomic"

	"geoloc/internal/cbg"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/par"
	"geoloc/internal/rhash"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
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
	// near, each one's chord to the centre in the same slot of nearChord,
	// and as a bitmap of nearWords words over VP indices in nearSet. The
	// ring stop also reads each centre's unit vector (cityUnit) and the
	// smallest VP last mile (minLastMile).
	vpUnit      []geo.Unit
	cityUnit    []geo.Unit
	near        []int32
	nearChord   []float64
	nearSet     []uint64
	nearN       int
	nearWords   int
	minLastMile float64

	// VPs priced (taken to the haversine) and VPs the bounds dropped, and
	// the calls whose walk the ring bound ended, over every MeasureTarget
	// call.
	priced, pruned, ringStops atomic.Int64
}

// StreamScale reads a numeric scale ("50000", "1e6") as a target count
// for the streaming pipeline, from 1 to 2^24 /24s. ok is false for
// anything else, a scale name included.
func StreamScale(s string) (targets int, ok bool) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f < 1 || f > 1<<24 {
		return 0, false
	}
	return int(f), true
}

// NewStreamScale is the campaign a numeric scale names: targets synthetic
// /24s over the Tiny world's vantage points (world generation and
// sanitization only — no matrices; that is the point), metering into reg
// (nil meters nothing).
func NewStreamScale(targets int, reg *telemetry.Registry) (*StreamCampaign, error) {
	return NewStreamCampaign(NewResilientCampaign(world.TinyConfig(), nil, reg), StreamSpec{Targets: targets})
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
		C:           c,
		Spec:        spec,
		seed:        c.W.Cfg.Seed,
		vpLoc:       make([]geo.Point, len(c.VPs)),
		vpTrig:      make([]geo.Trig, len(c.VPs)),
		vpLastMile:  make([]float64, len(c.VPs)),
		vpResp:      make([]float64, len(c.VPs)),
		vpUnit:      make([]geo.Unit, len(c.VPs)),
		minLastMile: math.Inf(1),
	}
	for i, h := range c.VPs {
		s.vpLoc[i] = h.Reported
		s.vpTrig[i] = geo.MakeTrig(h.Loc)
		s.vpLastMile[i] = h.LastMileMs
		s.vpResp[i] = h.RespScore
		s.vpUnit[i] = s.vpTrig[i].Unit()
		s.minLastMile = min(s.minLastMile, h.LastMileMs)
	}
	s.buildNear()
	return s, nil
}

// buildNear fills cityUnit, near, nearChord and nearSet: per city, a
// bounded max-heap over (chord to the city centre, VP index) keeps the
// nearN closest VPs, and popping it back to front leaves them nearest
// first. Every VP left out is at least as far from the centre as the
// last slot, which is what lets MeasureTarget's ring stop skip them
// wholesale. Which VPs make a shortlist changes how much MeasureTarget
// prunes, never what it returns, so the cheap chord stands in for the
// great-circle distance.
func (s *StreamCampaign) buildNear() {
	cities := s.C.W.Cities
	s.nearN = min(nearPerK*s.Spec.VPsPerTarget, len(s.vpUnit))
	s.nearWords = (len(s.vpUnit) + 63) / 64
	s.cityUnit = make([]geo.Unit, len(cities))
	s.near = make([]int32, len(cities)*s.nearN)
	s.nearChord = make([]float64, len(cities)*s.nearN)
	s.nearSet = make([]uint64, len(cities)*s.nearWords)
	par.For(len(cities), func(ci int) {
		cu := geo.MakeTrig(cities[ci].Loc).Unit()
		s.cityUnit[ci] = cu
		var heap [nearPerK * maxVPsPerTarget]vpRTT
		n := 0
		for vp, u := range s.vpUnit {
			n = pushBounded(heap[:s.nearN], n, vpRTT{rtt: geo.ChordKm(u, cu), vp: int32(vp)})
		}
		near := s.near[ci*s.nearN : (ci+1)*s.nearN]
		chord := s.nearChord[ci*s.nearN : (ci+1)*s.nearN]
		set := s.nearSet[ci*s.nearWords : (ci+1)*s.nearWords]
		for ; n > 0; n-- {
			vp := heap[0].vp
			near[n-1], chord[n-1] = vp, heap[0].rtt
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

// draw makes target t's keyed draws, the one place they are made: a city
// by population-independent keyed hash (its index in the world's Cities),
// a uniform point in its disk, and the last mile, inflated in a
// BadLastMile city.
func (s *StreamCampaign) draw(t int) (ci int, loc geo.Point, lastMile float64) {
	st := rhash.New(s.seed, saltStreamTarget, uint64(t))
	ci = st.Intn(len(s.C.W.Cities))
	city := &s.C.W.Cities[ci]
	bearing := st.Range(0, 360)
	dist := city.RadiusKm * math.Sqrt(st.Float64())
	loc = geo.Destination(city.Loc, bearing, dist)
	lastMile = st.Range(0.2, 4.0)
	if city.BadLastMile {
		lastMile += st.Range(4, 12)
	}
	return ci, loc, lastMile
}

// Truth returns target t's synthetic true location and the index of its
// city in the world's Cities. Exposed so a streamed artifact can be
// scored against it.
func (s *StreamCampaign) Truth(t int) (geo.Point, int) {
	ci, loc, _ := s.draw(t)
	return loc, ci
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
// stream, so MeasureTarget prices the city's nearest VPs first, stops
// the walk once the ring bound proves no VP left can beat the worst of
// the K it holds, and drops each VP it does visit as soon as a bound on
// its RTT (price) proves the same — before the log and the haversine
// that pricing it in full would cost.
func (s *StreamCampaign) MeasureTarget(t int, buf []cbg.Measurement) (ipaddr.Prefix24, []cbg.Measurement) {
	ci, loc, lastMile := s.draw(t)
	tt := geo.MakeTrig(loc)
	tu := tt.Unit()
	tc := geo.ChordKm(tu, s.cityUnit[ci])
	ping := rhash.Hash(s.seed, saltStreamPing, uint64(t))

	// Keep the K lowest-RTT responsive VPs in a fixed-size max-heap
	// (worst candidate at the root), then emit them in VP order. Ties
	// break toward the lower VP index so selection is total-ordered.
	// Once the heap holds K its root is the bound: a VP, or the whole
	// rest of the walk, is dropped only when a lower bound strictly
	// exceeds it — a bound equal to the root may still win the tie on VP
	// index — and reach (reachKm) is the distance past which no VP can
	// match it, reachSq the same as a squared chord. Visiting order: the
	// city's shortlist, nearest first, then every other VP by index.
	k := s.Spec.VPsPerTarget
	var heap [maxVPsPerTarget]vpRTT
	n, priced := 0, 0
	bound, reach, reachSq := math.Inf(1), math.Inf(1), math.Inf(1)
	near := s.near[ci*s.nearN : (ci+1)*s.nearN]
	nearChord := s.nearChord[ci*s.nearN : (ci+1)*s.nearN]
	inNear := s.nearSet[ci*s.nearWords : (ci+1)*s.nearWords]
	for i := 0; i < len(near)+len(s.vpUnit); i++ {
		// The ring stop, at each shortlist slot and once more before the
		// tail: every VP not yet visited is at least nearChord[i] from the
		// centre (the shortlist is nearest first, and the tail lies beyond
		// its last slot), so the ring bound floors all their distances.
		if i <= len(near) && geo.RingLowerBoundKm(nearChord[min(i, len(near)-1)], tc) > reach {
			s.ringStops.Add(1)
			break
		}
		vp := i - len(near)
		if i < len(near) {
			vp = int(near[i])
		} else if inNear[vp>>6]>>(vp&63)&1 != 0 {
			continue // had its turn on the shortlist
		}
		if geo.ChordSq(s.vpUnit[vp], tu) > reachSq {
			continue // out of reach without a square root
		}
		if c, ok := s.price(ping, vp, tt, tu, lastMile, bound); ok {
			priced++
			if n = pushBounded(heap[:k], n, c); n == k {
				bound = heap[0].rtt
				reach = s.reachKm(bound, lastMile)
				reachSq = geo.ChordSqBeyondKm(reach)
			}
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

// propMs is the round-trip propagation delay over distKm at two-thirds c.
func propMs(distKm float64) float64 {
	return geo.DistanceToRTTMs(distKm, geo.TwoThirdsC)
}

// pathRTT is the stream campaign's RTT model short of its jitter, given
// the propagation delay propMs returns. price and every lower bound on
// it share it, so all evaluate one expression tree.
func pathRTT(prop, inflate, lastMile, vpLastMile float64) float64 {
	return prop*inflate + lastMile + vpLastMile
}

// reachKm returns a distance past which no VP can answer the target
// within bound: for every distance d > reachKm, pathRTT(propMs(d),
// minInflate, lastMile, minLastMile) > bound, and every VP's RTT at d is
// at least that. It inverts pathRTT in real arithmetic and pads the
// result by 1e-6 relative and 1e-6 km, which dwarfs every rounding of the
// forward expression (a few ulps of an RTT below a second: ~1e-13 ms,
// ~1e-11 km).
func (s *StreamCampaign) reachKm(bound, lastMile float64) float64 {
	slack := max(bound-lastMile-s.minLastMile, 0)
	return slack/minInflate*geo.TwoThirdsC/2*(1+1e-6) + 1e-6
}

// price draws the measurement of the target with trig tt, unit vector tu
// and ping key ping (the hash of seed, saltStreamPing and the target
// index) from vp. ok is false when the VP does not answer, or when a
// lower bound on its RTT strictly exceeds bound, and true exactly when
// the haversine ran. The draws keep their order — answer, path factor,
// jitter — and each bound comes before the work it saves: at the floor
// path factor before any draw, at the drawn one before the jitter's log,
// and with the jitter before the haversine. Each bound is price's own
// expression with inputs at or below the real ones — the chord bound for
// the distance (geo.ChordLowerBoundKm ≤ TrigDistance), minInflate until
// the factor is drawn (0.9·u ≥ 0), no jitter until it is (−0.3·log u ≥ 0
// for u < 1) — and every operation in that expression is nondecreasing
// in those inputs and rounds to nearest, which preserves order.
func (s *StreamCampaign) price(ping uint64, vp int, tt geo.Trig, tu geo.Unit, lastMile, bound float64) (c vpRTT, ok bool) {
	vpLastMile := s.vpLastMile[vp]
	lbProp := 0.0 // floors the propagation delay; the chord is taken only once there is a bound to beat
	if !math.IsInf(bound, 1) {
		lbProp = propMs(geo.ChordLowerBoundKm(s.vpUnit[vp], tu))
		if pathRTT(lbProp, minInflate, lastMile, vpLastMile) > bound {
			return vpRTT{}, false
		}
	}
	pv := rhash.Keyed(rhash.Extend(ping, uint64(vp)))
	if !pv.Bool(s.vpResp[vp]) {
		return vpRTT{}, false
	}
	inflate := minInflate + 0.9*pv.Float64()
	floor := pathRTT(lbProp, inflate, lastMile, vpLastMile)
	if floor > bound {
		return vpRTT{}, false
	}
	jitter := pv.Exp(0.3)
	if floor+jitter > bound {
		return vpRTT{}, false
	}
	d := geo.TrigDistance(s.vpTrig[vp], tt)
	return vpRTT{rtt: pathRTT(propMs(d), inflate, lastMile, vpLastMile) + jitter, vp: int32(vp)}, true
}

// PricedPruned reports how many VPs MeasureTarget has priced — taken to
// the haversine — and how many it dropped without one (non-answering
// VPs, VPs a bound ruled out, VPs the ring stop never visited), summed
// over every call so far: priced + pruned = calls × VPs.
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
