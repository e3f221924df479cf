package geo

import (
	"math"
	"math/rand"
	"testing"
)

func randPoint(rng *rand.Rand) Point {
	return Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
}

// TestTrigDistanceBitIdentical compares TrigDistance against Distance on
// random pairs — the values must match exactly, not approximately.
func TestTrigDistanceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		a, b := randPoint(rng), randPoint(rng)
		want := Distance(a, b)
		got := TrigDistance(MakeTrig(a), MakeTrig(b))
		if got != want {
			t.Fatalf("TrigDistance(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

// TestContainsTrigMatchesContains hammers the calibrated haversine-space
// predicate against Circle.Contains, concentrating on points near the
// circle boundary (Destination at the nominal radius scaled by factors a
// few ulps around 1), where any threshold miscalibration flips the
// verdict.
func TestContainsTrigMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	iters := 200000
	if testing.Short() {
		iters = 20000
	}
	checked, boundary := 0, 0
	for i := 0; i < iters; i++ {
		c := Circle{Center: randPoint(rng), RadiusKm: rng.Float64() * 2500}
		tc := MakeTrigCircle(c)
		var p Point
		switch i % 4 {
		case 0: // arbitrary point
			p = randPoint(rng)
		case 1: // nominally on the boundary
			p = Destination(c.Center, rng.Float64()*360, c.RadiusKm)
			boundary++
		case 2: // a few ulps around the boundary
			r := c.RadiusKm * (1 + (rng.Float64()-0.5)*1e-15)
			p = Destination(c.Center, rng.Float64()*360, r)
			boundary++
		default: // interior ring point, as the sampler generates them
			r := c.RadiusKm * float64(rng.Intn(16)+1) / 16
			p = Destination(c.Center, rng.Float64()*360, r)
		}
		want := c.Contains(p)
		got := tc.ContainsTrig(MakeTrig(p))
		if got != want {
			t.Fatalf("circle %+v point %v: ContainsTrig = %v, Contains = %v (dist %v)",
				c, p, got, want, Distance(c.Center, p))
		}
		checked++
	}
	if boundary == 0 || checked != iters {
		t.Fatalf("degenerate test: %d checks, %d boundary", checked, boundary)
	}
}

// TestContainsTrigEdgeRadii covers the special radii: zero, negative,
// NaN, and radii at or beyond half the Earth's circumference.
func TestContainsTrigEdgeRadii(t *testing.T) {
	center := Point{Lat: 10, Lon: 20}
	points := []Point{center, {Lat: 10, Lon: 20.0000001}, {Lat: -10, Lon: -160}, {Lat: 90, Lon: 0}}
	for _, r := range []float64{0, -1, math.NaN(), math.Pi * EarthRadiusKm, math.Pi*EarthRadiusKm + 1, 1e9} {
		c := Circle{Center: center, RadiusKm: r}
		tc := MakeTrigCircle(c)
		for _, p := range points {
			if got, want := tc.ContainsTrig(MakeTrig(p)), c.Contains(p); got != want {
				t.Fatalf("radius %v point %v: ContainsTrig = %v, Contains = %v", r, p, got, want)
			}
		}
	}
}

// TestSMaxMonotoneBoundary checks the calibration invariant directly: the
// distance of sMax itself fits the radius, and the next representable s
// does not (unless sMax is already 1).
func TestSMaxMonotoneBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		r := rng.Float64() * 3000
		s := sMaxForRadius(r)
		if s < 0 || s > 1 {
			t.Fatalf("radius %v: sMax %v out of range", r, s)
		}
		if sDistance(s) > r {
			t.Fatalf("radius %v: sMax %v maps to distance %v > radius", r, s, sDistance(s))
		}
		if s < 1 {
			if next := math.Nextafter(s, 2); sDistance(next) <= r {
				t.Fatalf("radius %v: sMax %v not maximal (next %v still fits)", r, s, next)
			}
		}
	}
}

// TestTrigCutsMatchesDistance drives TrigCuts through random and
// boundary-adversarial (ra, rb) pairs and demands the verdict match the
// original expression exactly, including on radii constructed to sit
// within one ulp of the decision boundary, where the envelope screens
// must hand off to the exact evaluation.
func TestTrigCutsMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200000; i++ {
		a, b := MakeTrig(randPoint(rng)), MakeTrig(randPoint(rng))
		if i%4 == 0 { // identical latitudes exercise the Δlat-screen skips
			// Copy the cosine too: a Trig's CosLat is defined to be
			// cos(LatRad) (every constructor guarantees it, and the
			// meridian+parallel screen relies on it).
			b.LatRad, b.CosLat = a.LatRad, a.CosLat
		}
		ra := rng.Float64() * 1000
		var rb float64
		switch i % 5 {
		case 0:
			rb = rng.Float64() * 25000
		case 1: // exactly on the boundary
			rb = TrigDistance(a, b) + ra
		case 2: // one ulp below
			rb = math.Nextafter(TrigDistance(a, b)+ra, -1)
		case 3: // one ulp above
			rb = math.Nextafter(TrigDistance(a, b)+ra, math.Inf(1))
		default: // inside the inconclusive band
			rb = TrigDistance(a, b)*(0.8+0.4*rng.Float64()) + ra
		}
		want := !(TrigDistance(a, b)+ra <= rb)
		if got := TrigCuts(a, b, ra, rb); got != want {
			t.Fatalf("TrigCuts mismatch: a=%+v b=%+v ra=%v rb=%v got=%v want=%v",
				a, b, ra, rb, got, want)
		}
	}
}

// TestChordLowerBound is the property core's stream VP selection rests
// on: ChordLowerBoundKm never exceeds the computed TrigDistance, on
// uniform pairs, on pairs at log-uniform separations from a micrometre
// to the antipode (uniform pairs are almost never close, and close is
// where the chord is tight), and on the corners where either evaluation
// loses digits. It also pins the bound from below, so a bound that is
// merely small cannot pass.
func TestChordLowerBound(t *testing.T) {
	check := func(a, b Point) {
		t.Helper()
		ta, tb := MakeTrig(a), MakeTrig(b)
		d := TrigDistance(ta, tb)
		lb := ChordLowerBoundKm(ta.Unit(), tb.Unit())
		if !(lb <= d) {
			t.Fatalf("chord bound %v exceeds TrigDistance %v for %v, %v", lb, d, a, b)
		}
		if rev := ChordLowerBoundKm(tb.Unit(), ta.Unit()); rev != lb {
			t.Fatalf("chord bound not symmetric for %v, %v: %v vs %v", a, b, lb, rev)
		}
		// The chord of an arc θ is short by θ²/24 of it; allow twice that,
		// the margin and the pad.
		theta := d / EarthRadiusKm
		if floor := d*(1-theta*theta/12-2*distBoundMargin) - 2*chordPadKm; lb < floor {
			t.Fatalf("chord bound %v uselessly far below TrigDistance %v for %v, %v", lb, d, a, b)
		}
	}

	rng := rand.New(rand.NewSource(5))
	pairs := 1_000_000
	if testing.Short() {
		pairs = 100_000
	}
	for i := 0; i < pairs; i++ {
		a := randPoint(rng)
		if i%2 == 0 {
			check(a, randPoint(rng))
			continue
		}
		// 1e-9 km .. ~20,000 km, log-uniform.
		dist := math.Pow(10, -9+13.3*rng.Float64())
		check(a, Destination(a, rng.Float64()*360, dist))
	}

	const tiny = 1e-9 // degrees: a tenth of a millimetre
	for _, lat := range []float64{0, 37.5, -63, 89.999999, 90, -90} {
		for _, lon := range []float64{0, 12.25, 179.999999999, 180, -180} {
			p := Point{Lat: lat, Lon: lon}
			check(p, p)
			check(p, Point{Lat: lat, Lon: lon + tiny})
			check(p, Point{Lat: lat, Lon: lon - tiny})
			if lat+tiny <= 90 {
				check(p, Point{Lat: lat + tiny, Lon: lon})
			}
			if lat-tiny >= -90 {
				check(p, Point{Lat: lat - tiny, Lon: lon})
			}
			anti := Point{Lat: -lat, Lon: lon - 180}
			if anti.Lon < -180 {
				anti.Lon += 360
			}
			check(p, anti)
			check(p, Point{Lat: anti.Lat, Lon: anti.Lon + tiny})
			check(p, Point{Lat: lat, Lon: -lon}) // ±180° are one meridian
			check(p, Point{Lat: 90, Lon: lon + 77})
			check(p, Point{Lat: -90, Lon: lon - 77})
		}
	}
}
