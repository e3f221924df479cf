package geo

import (
	"math"
	"slices"
	"sync"
)

// Sampler estimates the centroid of a constraint intersection — the CBG
// location estimate — with reusable scratch and no per-point libm. It is a
// versioned estimator with two halves that answer to different contracts:
//
//   - The reduction (which circles survive, in which order, and which one
//     is sampled) is bit-exact with Region.Reduced: same first-minimum
//     rule, same TrigCuts verdicts, same ascending-radius sort over the
//     same initial order, so equal radii tie-break identically.
//   - The sampling is this kernel's own definition, not a replay of
//     Region.SamplePoints: the 16 × 24 + centre polar grid of the sample
//     circle is generated as unit vectors, membership in every other
//     surviving circle is a chord comparison, the sample circle's own grid
//     is inside it by construction (its rim included — SamplePoints leaves
//     the 24 rim points to a half-ulp of the haversine, which put the
//     centroid of a single circle up to 1.6 % of its radius off its own
//     centre), and the vector mean is accumulated from the vectors. The
//     legacy chain stays as an independent oracle the property tests hold
//     this kernel to within grid resolution of (sampler_test.go).
//
// Same constraints in the same order give the same bits on every run and
// at every worker count. A Sampler is single-goroutine scratch; use one per
// worker or the package pool (Region.Centroid does). Add constraints
// between Reset and Centroid, or Reduce when only the survivors are
// wanted.
type Sampler struct {
	cs   []samplerCircle
	keep []int32
	// cut holds what a grid point can fall outside of: every survivor but
	// the sample circle and its exact duplicates.
	cut []chordCircle
}

// samplerCircle is a constraint as the reduction reads it.
type samplerCircle struct {
	center   Point
	t        Trig
	radiusKm float64
}

// chordCircle is a constraint as the grid reads it: the centre's unit
// vector and the squared straight-line chord its radius subtends.
type chordCircle struct {
	u      Unit
	chord2 float64
}

// chord2ForRadius returns the squared chord, on the unit sphere, under an
// arc of radiusKm, so that |p − u|² ≤ chord2 ⇔ arc(u, p) ≤ radiusKm. The
// chord form keeps full relative precision at kilometre radii, where
// 1 − cos(r/R) has lost eight digits. A negative or NaN radius contains
// nothing; one of half the circumference or more contains everything.
func chord2ForRadius(radiusKm float64) float64 {
	half := radiusKm / (2 * EarthRadiusKm)
	if !(half >= 0) {
		return -1
	}
	if half >= math.Pi/2 {
		return math.Inf(1)
	}
	s := math.Sin(half)
	return 4 * s * s
}

// sampleBearings is the grid's bearing table, clockwise from north.
var sampleBearings = func() (t [DefaultSampleBearings]struct{ cos, sin float64 }) {
	for i := range t {
		t[i].sin, t[i].cos = math.Sincos(2 * math.Pi * float64(i) / DefaultSampleBearings)
	}
	return t
}()

// Reset clears the constraint set for reuse.
func (sm *Sampler) Reset() { sm.cs = sm.cs[:0] }

// Add appends a constraint circle.
func (sm *Sampler) Add(c Circle) {
	sm.cs = append(sm.cs, samplerCircle{center: c.Center, t: MakeTrig(c.Center), radiusKm: c.RadiusKm})
}

// AddTrig appends a constraint circle whose center trigonometry the
// caller already has (the CBG matrix caches per-VP trig).
func (sm *Sampler) AddTrig(center Point, t Trig, radiusKm float64) {
	sm.cs = append(sm.cs, samplerCircle{center: center, t: t, radiusKm: radiusKm})
}

// inside reports whether the grid point satisfies every constraint that
// can cut the sample circle. The loop is a conjunction of pure
// predicates, so the evaluation order cannot change the verdict; it only
// decides how many circles a rejected point pays for. Consecutive grid
// points are spatially adjacent, so the circle that cut the last point
// usually cuts the next one too: a rejecting circle is swapped to the
// front, which collapses the common miss from ~len(cut)/2 tests to ~1.
func (sm *Sampler) inside(p Unit) bool {
	for i := range sm.cut {
		c := &sm.cut[i]
		dx, dy, dz := p.X-c.u.X, p.Y-c.u.Y, p.Z-c.u.Z
		if !(dx*dx+dy*dy+dz*dz <= c.chord2) {
			sm.cut[0], sm.cut[i] = sm.cut[i], sm.cut[0]
			return false
		}
	}
	return true
}

// Reduce runs the reduction half of Centroid over the constraints added
// since Reset, replicating Region.Reduced: the tightest circle is the
// *first* minimum-radius circle in insertion order; survivors are the
// tightest's duplicates and every circle not wholly containing it (the
// TrigCuts verdict, which is ContainsCircle's bit for bit); the survivor
// order is the ascending-radius sort of the original — the indices are
// sorted with the same comparator over the same initial order, so the
// permutation (and with it the tie-breaking of equal radii) is identical.
// Kept and KeptTrig read the survivors. It reports whether any constraint
// was added.
func (sm *Sampler) Reduce() bool {
	sm.keep = sm.keep[:0]
	if len(sm.cs) == 0 {
		return false
	}
	tightIdx := 0
	for i := 1; i < len(sm.cs); i++ {
		if sm.cs[i].radiusKm < sm.cs[tightIdx].radiusKm {
			tightIdx = i
		}
	}
	tight0 := sm.cs[tightIdx]
	for i := range sm.cs {
		c := &sm.cs[i]
		if (c.center == tight0.center && c.radiusKm == tight0.radiusKm) ||
			TrigCuts(c.t, tight0.t, tight0.radiusKm, c.radiusKm) {
			sm.keep = append(sm.keep, int32(i))
		}
	}
	slices.SortFunc(sm.keep, func(a, b int32) int {
		return byRadius(sm.cs[a].radiusKm, sm.cs[b].radiusKm)
	})
	return len(sm.keep) > 0
}

// Centroid estimates the centroid of the constraint intersection on the
// DefaultSampleRings × DefaultSampleBearings polar grid of the tightest
// surviving circle. ok is false when no constraints were added or no grid
// point satisfies all of them.
func (sm *Sampler) Centroid() (Point, bool) {
	if !sm.Reduce() {
		return Point{}, false
	}
	// Ascending order: keep[0] is the sample circle.
	tc := &sm.cs[sm.keep[0]]
	if !(tc.radiusKm >= 0) {
		return Point{}, false // a negative or NaN radius contains nothing, its own grid included
	}
	sm.cut = sm.cut[:0]
	for _, ki := range sm.keep[1:] {
		c := &sm.cs[ki]
		if c.center == tc.center && c.radiusKm == tc.radiusKm {
			continue
		}
		sm.cut = append(sm.cut, chordCircle{u: c.t.Unit(), chord2: chord2ForRadius(c.radiusKm)})
	}

	// The grid point at angular distance ad and bearing β from the centre
	// c is cos(ad)·c + sin(ad)·(cos β·n + sin β·e), with n and e the local
	// north and east at c: one Sincos a ring, no libm call a point.
	sinLat, cosLat := math.Sin(tc.t.LatRad), tc.t.CosLat
	sinLon, cosLon := math.Sincos(tc.t.LonRad)
	c := Unit{cosLat * cosLon, cosLat * sinLon, sinLat}
	n := Unit{-sinLat * cosLon, -sinLat * sinLon, cosLat}
	e := Unit{-sinLon, cosLon, 0}
	var dirs [DefaultSampleBearings]Unit
	for i, b := range sampleBearings {
		dirs[i] = Unit{b.cos*n.X + b.sin*e.X, b.cos*n.Y + b.sin*e.Y, b.cos*n.Z + b.sin*e.Z}
	}

	var sum Unit
	count := 0
	if sm.inside(c) {
		sum, count = c, 1
	}
	for ri := 1; ri <= DefaultSampleRings; ri++ {
		sinAd, cosAd := math.Sincos(tc.radiusKm * float64(ri) / DefaultSampleRings / EarthRadiusKm)
		for _, d := range dirs {
			p := Unit{cosAd*c.X + sinAd*d.X, cosAd*c.Y + sinAd*d.Y, cosAd*c.Z + sinAd*d.Z}
			if sm.inside(p) {
				sum.X += p.X
				sum.Y += p.Y
				sum.Z += p.Z
				count++
			}
		}
	}

	if count == 0 {
		return Point{}, false
	}
	fn := float64(count)
	x, y, z := sum.X/fn, sum.Y/fn, sum.Z/fn
	norm := math.Sqrt(x*x + y*y + z*z)
	if norm < 1e-12 {
		return Point{}, false
	}
	return Point{
		Lat: rad2deg(math.Asin(z / norm)),
		Lon: rad2deg(math.Atan2(y, x)),
	}, true
}

// samplerPool backs Region.Centroid and other call sites without a
// natural place to keep per-worker scratch. Pool contents never influence
// results — a sampler is reset before use — so pooling is
// determinism-safe.
var samplerPool = sync.Pool{New: func() any { return new(Sampler) }}

// GetSampler borrows a reset sampler from the package pool.
func GetSampler() *Sampler {
	sm := samplerPool.Get().(*Sampler)
	sm.Reset()
	return sm
}

// PutSampler returns a sampler to the package pool.
func PutSampler(sm *Sampler) { samplerPool.Put(sm) }

// Kept invokes fn for every constraint that survived the last reduction
// (Reduce, or the one Centroid runs), in ascending-radius order. The set
// is exactly Region.Reduced's. Valid until the next Reset.
func (sm *Sampler) Kept(fn func(Circle)) {
	for _, ki := range sm.keep {
		c := &sm.cs[ki]
		fn(Circle{Center: c.center, RadiusKm: c.radiusKm})
	}
}

// KeptTrig appends the survivors of the last reduction to dst as
// TrigCircles, in Kept's order, over the centre trig each was added with:
// MakeTrigCircle of Region.Reduced's circles, bit for bit, when that trig
// is MakeTrig of the centre (Add's, and the CBG matrix's cached trig).
func (sm *Sampler) KeptTrig(dst []TrigCircle) []TrigCircle {
	for _, ki := range sm.keep {
		c := &sm.cs[ki]
		dst = append(dst, TrigCircle{Center: c.center, T: c.t, RadiusKm: c.radiusKm, sMax: sMaxForRadius(c.radiusKm)})
	}
	return dst
}
