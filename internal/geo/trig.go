// Precomputed-trigonometry forms of the hot kernels. The analysis phases
// evaluate Distance and Circle.Contains hundreds of millions of times per
// campaign against a small set of fixed centers (vantage points, sample
// ring origins); caching each point's radian coordinates and cos-latitude
// removes the repeated deg2rad/cos work while reproducing the original
// expressions bit for bit.
package geo

import "math"

// Trig is a point with its radian coordinates and cosine latitude cached.
// CosLat is an invariant, not a free field: it must equal
// math.Cos(LatRad), as every constructor guarantees — the geometric
// screens in ContainsTrig and TrigCuts rely on it.
type Trig struct {
	LatRad float64
	LonRad float64
	CosLat float64
}

// MakeTrig caches the trigonometry of p.
func MakeTrig(p Point) Trig {
	lat := deg2rad(p.Lat)
	return Trig{LatRad: lat, LonRad: deg2rad(p.Lon), CosLat: math.Cos(lat)}
}

// TrigDistance is Distance over precomputed trig. The expression tree
// matches Distance exactly (same operand order and association), so the
// result is bit-identical. It repeats haversineS's body rather than
// calling it: the hot kernels pay for no second call frame.
func TrigDistance(a, b Trig) float64 {
	dlat := b.LatRad - a.LatRad
	dlon := b.LonRad - a.LonRad
	sl, sn := math.Sin(dlat/2), math.Sin(dlon/2)
	s := sl*sl + a.CosLat*b.CosLat*sn*sn
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(s))
}

// haversineS returns the clamped haversine term s of Distance — the value
// the original kernel feeds into 2R·asin(√s). Comparing s against a
// calibrated threshold (see sMaxForRadius) answers "distance ≤ radius"
// without evaluating the asin and sqrt at all. Here, in TrigDistance and
// in Distance each half-angle sine is taken once and squared: gc does
// not merge two calls of math.Sin.
func haversineS(a, b Trig) float64 {
	dlat := b.LatRad - a.LatRad
	dlon := b.LonRad - a.LonRad
	sl, sn := math.Sin(dlat/2), math.Sin(dlon/2)
	s := sl*sl + a.CosLat*b.CosLat*sn*sn
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return s
}

// sDistance maps a clamped haversine term to the distance Distance would
// return for it — the shared tail of the original kernel.
func sDistance(s float64) float64 {
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(s))
}

// sMaxForRadius returns the largest clamped haversine term s whose
// distance still fits within radiusKm, so that for any point pair
//
//	haversineS(a, b) <= sMaxForRadius(r)  ⇔  Distance(a, b) <= r
//
// exactly, rounding included. The first guess sin²(r/2R) is the algebraic
// inverse; the Nextafter walk then pins the guess to the actual rounding
// boundary of the forward formula (sDistance is a nondecreasing step
// function of s, so the boundary is well defined and the walk is a couple
// of steps at most). Exact calibration rather than an approximate
// threshold is what lets ContainsTrig stand in for Circle.Contains with no
// verdict ever differing — vpsel.TwoStepSelect's candidate set, and the
// ping counts of Fig 3c with it, rest on that.
func sMaxForRadius(radiusKm float64) float64 {
	if radiusKm < 0 || math.IsNaN(radiusKm) {
		return -1 // excludes every s: a negative radius contains nothing
	}
	half := radiusKm / (2 * EarthRadiusKm)
	if half >= math.Pi/2 {
		return 1 // asin saturates at π/2: every point on Earth qualifies
	}
	sn := math.Sin(half)
	s := sn * sn
	if s > 1 {
		s = 1
	}
	for s > 0 && sDistance(s) > radiusKm {
		s = math.Nextafter(s, -1)
	}
	if sDistance(s) > radiusKm {
		return -1 // radius below the distance of even s = 0
	}
	for s < 1 {
		next := math.Nextafter(s, 2)
		if next > 1 || sDistance(next) > radiusKm {
			break
		}
		s = next
	}
	return s
}

// TrigCircle is a constraint circle with cached center trigonometry and a
// calibrated haversine-space radius threshold.
type TrigCircle struct {
	Center   Point
	T        Trig
	RadiusKm float64
	sMax     float64
}

// MakeTrigCircle caches the trigonometry of c.
func MakeTrigCircle(c Circle) TrigCircle {
	return TrigCircle{
		Center:   c.Center,
		T:        MakeTrig(c.Center),
		RadiusKm: c.RadiusKm,
		sMax:     sMaxForRadius(c.RadiusKm),
	}
}

// sSlack absorbs the one way the haversine sum can dip below its
// latitude term: a pole-adjacent cached cosine can round to a hair
// below zero (cos of a rounded π/2), pulling the cross term as low as
// ≈ -2⁻⁵². Early verdicts taken from the latitude term alone leave this
// much room so the full expression still decides near-boundary cases.
const sSlack = 1e-12

// distBoundMargin pads the algebraic envelope 2R·x ≤ 2R·asin(x) ≤ πR·x
// (x = √s ∈ [0, 1]) when it brackets the computed distance: libm asin is
// accurate to a few ulps (~1e-16 relative), so a 1e-9 relative margin
// dwarfs any rounding while keeping the envelope usefully tight.
const distBoundMargin = 1e-9

// The meridian screen d ≥ R·|Δlat| (from asin(√s) ≥ asin(|sin(Δlat/2)|)
// = |Δlat|/2) is applied only for |Δlat| within these gates: below the
// lower gate the sSlack dip in s is no longer negligible relative to the
// latitude term, and near π the asin error amplification (∝ tan) outgrows
// distBoundMargin. Inside the gates every float slop stays below ~2e-10
// relative, safely under the 1e-9 margin; outside, the sine-based screens
// decide instead.
const (
	latScreenMin = 0.1
	latScreenMax = 2.8
)

// distPadKm absolutely pads the meridian+parallel upper bound
// d ≤ R·(|Δlat| + Δlon·cos lat). At a pole the cached cosine can sit one
// rounding below the true cosine (≈1.3e-16), leaving the bound short by
// up to ~1e-11 km in absolute terms that a relative margin cannot cover
// when the bound itself is near zero; one micrometre of padding does.
const distPadKm = 1e-9

// ContainsTrig reports whether the point lies inside the circle, with a
// verdict bit-identical to Circle.Contains: the haversine term is built
// from the same expression tree and the threshold is calibrated to the
// rounding of the original distance formula. The latitude term alone
// lower-bounds the sum (to within sSlack), so points whose latitudes
// already disagree are rejected after a single sine.
func (c TrigCircle) ContainsTrig(p Trig) bool {
	dlat := p.LatRad - c.T.LatRad

	// Libm-free screens (see TrigCuts): the meridian lower bound rejects,
	// the meridian+parallel upper bound accepts, both through the
	// calibration equivalence s ≤ sMax ⇔ distance ≤ radius.
	adlat := math.Abs(dlat)
	if adlat >= latScreenMin && adlat <= latScreenMax &&
		EarthRadiusKm*adlat*(1-distBoundMargin) > c.RadiusKm {
		return false
	}
	dlon := p.LonRad - c.T.LonRad
	adlon := math.Abs(dlon)
	if adlon > math.Pi {
		adlon = 2*math.Pi - adlon
	}
	cmin := c.T.CosLat
	if p.CosLat < cmin {
		cmin = p.CosLat
	}
	if (EarthRadiusKm*(adlat+adlon*cmin)+distPadKm)*(1+distBoundMargin) <= c.RadiusKm {
		return true
	}

	sl := math.Sin(dlat / 2)
	if t := sl * sl; t > c.sMax+sSlack {
		return false
	}
	sn := math.Sin(dlon / 2)
	s := sl*sl + c.T.CosLat*p.CosLat*sn*sn
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return s <= c.sMax
}

// LatBand returns the latitudes, in radians, outside which ContainsTrig
// accepts no point: a point it accepts has T.LatRad − w ≤ LatRad ≤
// T.LatRad + w. ContainsTrig accepts on one of two paths. Its screen
// accepts only when R·|Δlat| fits the radius, and its full test only when
// s ≤ sMax, where s is sin²(Δlat/2) plus a cross term no lower than
// −2⁻⁵² — so sin²(Δlat/2) ≤ sMax + sSlack on either path (sMax is the
// largest s within the radius, sin²(r/2R) to the ulp, and sSlack dwarfs
// both the cross term's dip and that ulp). w solves that bound for
// |Δlat| and is padded by distBoundMargin and 1e-12 rad for the libm and
// subtraction rounding. The band wraps neither pole nor antimeridian: a
// latitude past ±π/2 simply admits every point up to the pole, and a
// circle of half the circumference or more gets the whole range. lo > hi
// when the circle contains nothing (a negative or NaN radius).
func (c TrigCircle) LatBand() (lo, hi float64) {
	if !(c.sMax >= 0) {
		return 1, -1
	}
	s := c.sMax + sSlack
	if s >= 1 {
		return math.Inf(-1), math.Inf(1)
	}
	w := 2*math.Asin(math.Sqrt(s))*(1+distBoundMargin) + 1e-12
	return c.T.LatRad - w, c.T.LatRad + w
}

// TrigCuts reports !(TrigDistance(a, b) + ra <= rb) — the constraint-
// reduction verdict "circle (a, rb) is not swallowed by disk (b, ra)" —
// bit-identically to evaluating the distance, but paying for the asin
// only when a cheap two-sided envelope cannot already decide. Most
// candidates resolve on the envelope: kept circles are typically far too
// tight for rb to swallow the disk (the lower bound decides after the
// sines, often after one), and discarded ones far too loose (the upper
// bound decides). Only radii inside the ~π/2-wide relative band pay the
// exact distance evaluation.
func TrigCuts(a, b Trig, ra, rb float64) bool {
	dlat := b.LatRad - a.LatRad

	// Libm-free screens first: the meridian path lower-bounds the
	// distance by R·|Δlat| (exact: asin(√s) ≥ asin(|sin(Δlat/2)|) =
	// |Δlat|/2), and the meridian-then-parallel path upper-bounds it by
	// R·(|Δlat| + Δlon·min cos lat) — triangle inequality through the
	// corner point (lat_b, lon_a) or (lat_a, lon_b), whichever parallel
	// is shorter. Between them most candidates resolve for the cost of
	// a few multiplies: kept circles are typically far too tight for rb
	// to swallow the disk, discarded ones far too loose.
	adlat := math.Abs(dlat)
	if adlat >= latScreenMin && adlat <= latScreenMax {
		if lo := EarthRadiusKm * adlat * (1 - distBoundMargin); lo+ra > rb {
			return true
		}
	}
	dlon := b.LonRad - a.LonRad
	adlon := math.Abs(dlon)
	if adlon > math.Pi {
		adlon = 2*math.Pi - adlon
	}
	cmin := a.CosLat
	if b.CosLat < cmin {
		cmin = b.CosLat
	}
	if hi := (EarthRadiusKm*(adlat+adlon*cmin) + distPadKm) * (1 + distBoundMargin); hi+ra <= rb {
		return false
	}

	sl := math.Sin(dlat / 2)
	t := sl * sl
	if t > sSlack {
		// s ≥ t − sSlack, so the distance is at least ≈ 2R·√(t−sSlack).
		if lo := 2 * EarthRadiusKm * math.Sqrt(t-sSlack) * (1 - distBoundMargin); lo+ra > rb {
			return true
		}
	}
	sn := math.Sin(dlon / 2)
	s := sl*sl + a.CosLat*b.CosLat*sn*sn
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	x := math.Sqrt(s)
	if lo := 2 * EarthRadiusKm * x * (1 - distBoundMargin); lo+ra > rb {
		return true
	}
	if hi := math.Pi * EarthRadiusKm * x * (1 + distBoundMargin); hi+ra <= rb {
		return false
	}
	return !(2*EarthRadiusKm*math.Asin(x)+ra <= rb)
}

// Unit is a point's unit vector on the sphere. Two unit vectors give the
// straight-line chord between their points for a handful of multiplies
// and no libm call, which is what a screen that runs once per candidate
// (core's stream VP selection) can afford.
type Unit struct{ X, Y, Z float64 }

// Unit returns t's unit vector, built from the same cached radians and
// cosine latitude TrigDistance reads.
func (t Trig) Unit() Unit {
	return Unit{
		X: t.CosLat * math.Cos(t.LonRad),
		Y: t.CosLat * math.Sin(t.LonRad),
		Z: math.Sin(t.LatRad),
	}
}

// chordPadKm absolutely pads ChordLowerBoundKm: each unit-vector
// component carries ~1e-16 of rounding, so the computed chord of two
// nearly coincident points can exceed the true one by ~1e-12 km — an
// error the relative margin cannot cover when the chord itself is near
// zero. One millimetre does, a million times over.
const chordPadKm = 1e-6

// ChordSq returns the squared straight-line chord between two unit
// vectors' points, on the unit sphere: the one expression every chord
// function here takes its square root of.
func ChordSq(a, b Unit) float64 {
	dx, dy, dz := a.X-b.X, a.Y-b.Y, a.Z-b.Z
	return dx*dx + dy*dy + dz*dz
}

// ChordLowerBoundKm returns a distance that never exceeds
// TrigDistance(a, b) for the Trigs the two unit vectors came from: the
// arc 2R·asin(chord/2) is at least its chord R·chord, shaved by
// distBoundMargin and chordPadKm so that no rounding in either
// evaluation can lift it above the computed haversine. The bound is
// tight for near points (within 1e-9 relative below ~1 km, 0.4 % at
// 2,000 km) and loose for far ones (2R against πR at the antipode). It
// is negative for points closer than the pad; DistanceToRTTMs clamps.
func ChordLowerBoundKm(a, b Unit) float64 {
	return EarthRadiusKm*(1-distBoundMargin)*math.Sqrt(ChordSq(a, b)) - chordPadKm
}

// ChordSqBeyondKm returns a squared unit chord past which a pair is
// farther apart than km: ChordSq(a, b) > ChordSqBeyondKm(km) implies
// ChordLowerBoundKm(a, b) > km, and with it TrigDistance(a, b) > km. It
// inverts ChordLowerBoundKm in real arithmetic and pads the chord by
// 1e-9 relative plus 1e-15 km, which dwarf the few ulps its square root
// and product round by and the ~1e-22 km its subtraction of chordPadKm
// does. A screen over many pairs compares squares against it and pays no
// square root.
func ChordSqBeyondKm(km float64) float64 {
	if km < -chordPadKm {
		return -1 // every pair: no chord bound falls below -chordPadKm
	}
	c := ((km+chordPadKm)*(1+1e-9) + 1e-15) / (EarthRadiusKm * (1 - distBoundMargin))
	return c * c
}

// ChordKm returns the straight-line chord between two unit vectors'
// points in kilometres, unshaved: the input RingLowerBoundKm takes.
func ChordKm(a, b Unit) float64 {
	return EarthRadiusKm * math.Sqrt(ChordSq(a, b))
}

// RingLowerBoundKm returns a distance that never exceeds TrigDistance(v,
// t) for any point v at chord vcKm (ChordKm) from a centre c and any
// point t at chord tcKm from the same c. The triangle inequality in space
// gives |v−t| ≥ |v−c| − |t−c|, the arc is at least its chord, and
// ChordLowerBoundKm's relative margin and pad shave the difference: each
// chord carries ~1e-12 km of rounding at most (2R · a few ulps), far
// below the pad. It is negative when vcKm ≤ tcKm; DistanceToRTTMs clamps.
func RingLowerBoundKm(vcKm, tcKm float64) float64 {
	return (1-distBoundMargin)*(vcKm-tcKm) - chordPadKm
}
