package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// randomPoint constrains quick-generated floats into valid coordinates.
func randomPoint(lat, lon float64) Point {
	return Point{
		Lat: math.Mod(math.Abs(lat), 180) - 90,
		Lon: math.Mod(math.Abs(lon), 360) - 180,
	}
}

func TestDistanceKnownValues(t *testing.T) {
	paris := Point{48.8566, 2.3522}
	london := Point{51.5074, -0.1278}
	ny := Point{40.7128, -74.0060}

	cases := []struct {
		a, b     Point
		wantKm   float64
		tolKm    float64
		testName string
	}{
		{paris, london, 344, 10, "paris-london"},
		{paris, ny, 5837, 60, "paris-newyork"},
		{paris, paris, 0, 1e-9, "identity"},
	}
	for _, c := range cases {
		got := Distance(c.a, c.b)
		if math.Abs(got-c.wantKm) > c.tolKm {
			t.Errorf("%s: Distance = %.1f km, want %.1f ± %.1f", c.testName, got, c.wantKm, c.tolKm)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(la1, lo1, la2, lo2 float64) bool {
		a, b := randomPoint(la1, lo1), randomPoint(la2, lo2)
		d1, d2 := Distance(a, b), Distance(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDistanceSymmetricBits requires Distance(a, b) and Distance(b, a) to
// be the same float64, bit for bit — experiments read one cached error row
// whichever order a figure named the two points in. Both orders negate
// dlat and dlon exactly, sin is odd and squared, and the cosine product
// commutes. Random pairs, near-antipodes, poles, the date line and
// coincident points.
func TestDistanceSymmetricBits(t *testing.T) {
	check := func(a, b Point) bool {
		return math.Float64bits(Distance(a, b)) == math.Float64bits(Distance(b, a))
	}
	if err := quick.Check(func(la1, lo1, la2, lo2 float64) bool {
		return check(randomPoint(la1, lo1), randomPoint(la2, lo2))
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	edges := []Point{
		{0, 0}, {90, 0}, {-90, 0}, {0, 180}, {0, -180}, {45, 179.9999}, {45, -179.9999},
		{-45, 135}, {45, -45}, {1e-9, 1e-9}, {89.999999, 12}, {-33.8688, 151.2093}, {40.7128, -74.006},
	}
	for _, a := range edges {
		for _, b := range edges {
			if !check(a, b) {
				t.Errorf("Distance(%v, %v) = %x, Distance(%v, %v) = %x", a, b,
					math.Float64bits(Distance(a, b)), b, a, math.Float64bits(Distance(b, a)))
			}
		}
	}
}

func TestDistanceNonNegativeAndBounded(t *testing.T) {
	f := func(la1, lo1, la2, lo2 float64) bool {
		a, b := randomPoint(la1, lo1), randomPoint(la2, lo2)
		d := Distance(a, b)
		return d >= 0 && d <= math.Pi*EarthRadiusKm+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(la1, lo1, la2, lo2, la3, lo3 float64) bool {
		a := randomPoint(la1, lo1)
		b := randomPoint(la2, lo2)
		c := randomPoint(la3, lo3)
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	f := func(la, lo, brng, dist float64) bool {
		p := randomPoint(la, lo)
		if math.Abs(p.Lat) > 80 {
			return true // avoid polar wrap corner cases for the property
		}
		d := math.Mod(math.Abs(dist), 5000)
		b := math.Mod(math.Abs(brng), 360)
		q := Destination(p, b, d)
		return math.Abs(Distance(p, q)-d) < 0.5 // within 500 m over ≤5000 km
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationBearingConsistency(t *testing.T) {
	p := Point{48.85, 2.35}
	q := Destination(p, 90, 100)
	if q.Lon <= p.Lon {
		t.Errorf("bearing 90 should move east: %v -> %v", p, q)
	}
	q = Destination(p, 0, 100)
	if q.Lat <= p.Lat {
		t.Errorf("bearing 0 should move north: %v -> %v", p, q)
	}
}

func TestInitialBearingRange(t *testing.T) {
	f := func(la1, lo1, la2, lo2 float64) bool {
		a, b := randomPoint(la1, lo1), randomPoint(la2, lo2)
		brng := InitialBearing(a, b)
		return brng >= 0 && brng < 360
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCentroidSinglePoint(t *testing.T) {
	p := Point{12.5, -45.25}
	c, ok := Centroid([]Point{p})
	if !ok {
		t.Fatal("centroid of one point should exist")
	}
	if Distance(c, p) > 1e-6 {
		t.Errorf("centroid of single point = %v, want %v", c, p)
	}
}

func TestCentroidEmpty(t *testing.T) {
	if _, ok := Centroid(nil); ok {
		t.Error("centroid of empty slice should report !ok")
	}
}

func TestCentroidOfCluster(t *testing.T) {
	base := Point{40, -3}
	pts := []Point{
		Destination(base, 0, 10),
		Destination(base, 90, 10),
		Destination(base, 180, 10),
		Destination(base, 270, 10),
	}
	c, ok := Centroid(pts)
	if !ok {
		t.Fatal("expected centroid")
	}
	if d := Distance(c, base); d > 1 {
		t.Errorf("cluster centroid %.3f km from base, want < 1 km", d)
	}
}

func TestRTTDistanceRoundTrip(t *testing.T) {
	f := func(d float64) bool {
		dist := math.Mod(math.Abs(d), 20000)
		rtt := DistanceToRTTMs(dist, TwoThirdsC)
		back := RTTToDistanceKm(rtt, TwoThirdsC)
		return math.Abs(back-dist) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRTTToDistanceNegativeClamps(t *testing.T) {
	if got := RTTToDistanceKm(-5, TwoThirdsC); got != 0 {
		t.Errorf("negative RTT should clamp to 0, got %f", got)
	}
	if got := DistanceToRTTMs(-5, TwoThirdsC); got != 0 {
		t.Errorf("negative distance should clamp to 0, got %f", got)
	}
}

func TestSpeedConstants(t *testing.T) {
	// 1 ms RTT at 2/3c should be ~100 km one way.
	if got := RTTToDistanceKm(1, TwoThirdsC); math.Abs(got-99.93) > 0.1 {
		t.Errorf("1ms at 2/3c = %.2f km, want ~99.93", got)
	}
	if TwoThirdsC <= FourNinthsC {
		t.Error("2/3c must exceed 4/9c")
	}
}

func TestPointValid(t *testing.T) {
	if !(Point{0, 0}).Valid() {
		t.Error("origin should be valid")
	}
	if (Point{91, 0}).Valid() {
		t.Error("lat 91 should be invalid")
	}
	if (Point{0, 181}).Valid() {
		t.Error("lon 181 should be invalid")
	}
	if (Point{math.NaN(), 0}).Valid() {
		t.Error("NaN lat should be invalid")
	}
}

func TestInitialBearingCardinal(t *testing.T) {
	p := Point{10, 20}
	cases := []struct {
		to   Point
		want float64
	}{
		{Point{20, 20}, 0},   // due north
		{Point{0, 20}, 180},  // due south
		{Point{10, 30}, 90},  // roughly east (great-circle skews slightly)
		{Point{10, 10}, 270}, // roughly west
	}
	for _, c := range cases {
		got := InitialBearing(p, c.to)
		diff := math.Abs(got - c.want)
		if diff > 180 {
			diff = 360 - diff
		}
		if diff > 3 {
			t.Errorf("InitialBearing(%v -> %v) = %.1f, want ~%.1f", p, c.to, got, c.want)
		}
	}
}

func TestDistanceAntipodal(t *testing.T) {
	d := Distance(Point{0, 0}, Point{0, 180})
	if math.Abs(d-math.Pi*EarthRadiusKm) > 1 {
		t.Errorf("antipodal distance = %.1f, want %.1f", d, math.Pi*EarthRadiusKm)
	}
}
