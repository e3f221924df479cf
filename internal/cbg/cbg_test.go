package cbg

import (
	"math"
	"slices"
	"testing"

	"geoloc/internal/geo"
)

// syntheticMeasurements builds clean measurements from VPs at the given
// bearings/distances around the target, with RTTs slightly above the
// physical floor at 2/3c.
func syntheticMeasurements(target geo.Point, dists []float64, slackMs float64) []Measurement {
	ms := make([]Measurement, len(dists))
	for i, d := range dists {
		vp := geo.Destination(target, float64(i)*360/float64(len(dists)), d)
		ms[i] = Measurement{VP: vp, RTTMs: geo.DistanceToRTTMs(d, geo.TwoThirdsC) + slackMs}
	}
	return ms
}

// oneTarget builds a one-target matrix from measurements, one VP each.
func oneTarget(ms []Measurement) *Matrix {
	vps := make([]geo.Point, len(ms))
	for i, m := range ms {
		vps[i] = m.VP
	}
	mat := NewMatrix(vps, 1, nil)
	for i, m := range ms {
		mat.SetRow(i, []float32{float32(m.RTTMs)})
	}
	return mat
}

// region is the geo.Region reference of a measurement list: one circle
// per responsive measurement, in order.
func region(ms []Measurement, speed float64) geo.Region {
	var r geo.Region
	for _, m := range ms {
		if m.RTTMs >= 0 && !math.IsNaN(m.RTTMs) {
			r.Add(geo.Circle{Center: m.VP, RadiusKm: geo.RTTToDistanceKm(m.RTTMs, speed)})
		}
	}
	return r
}

func TestLocateSurroundedTarget(t *testing.T) {
	target := geo.Point{Lat: 48.8, Lon: 2.3}
	ms := syntheticMeasurements(target, []float64{100, 150, 200, 120}, 0.2)
	got, ok := oneTarget(ms).LocateSubset(0, nil, geo.TwoThirdsC)
	if !ok {
		t.Fatal("no region")
	}
	if d := geo.Distance(got, target); d > 60 {
		t.Errorf("CBG error %.1f km, want < 60", d)
	}
}

// TestLocateCloseVPTightens states what CBG guarantees once a VP sits next
// to the target: its disk (15 km here) lies wholly inside the three
// ~850 km ones, so it alone survives the reduction, the estimate lies
// inside it, and the error is bounded by its radius. (It does not promise
// to beat the far triple's centroid, which symmetry puts 4 km from this
// target; the near VP's honest answer is its own location, 10 km away.)
func TestLocateCloseVPTightens(t *testing.T) {
	target := geo.Point{Lat: 40, Lon: -74}
	ms := syntheticMeasurements(target, []float64{800, 900, 1000}, 0.3)
	ms = append(ms, syntheticMeasurements(target, []float64{10}, 0.05)...)
	reg := region(ms, geo.TwoThirdsC)
	near := reg.Circles[len(reg.Circles)-1]
	if red := reg.Reduced(); len(red.Circles) != 1 || red.Circles[0] != near {
		t.Fatalf("reduction kept %+v, want only the near VP's disk %+v", red.Circles, near)
	}
	est, ok := oneTarget(ms).LocateSubset(0, nil, geo.TwoThirdsC)
	if !ok {
		t.Fatal("no region")
	}
	if !near.Contains(est) {
		t.Errorf("estimate %v outside the near VP's disk %+v", est, near)
	}
	if d := geo.Distance(est, target); d > near.RadiusKm {
		t.Errorf("error %.1f km exceeds the near disk's radius %.1f km", d, near.RadiusKm)
	}
}

func TestLocateSkipsUnresponsive(t *testing.T) {
	target := geo.Point{Lat: 50, Lon: 10}
	ms := syntheticMeasurements(target, []float64{100, 200, 300}, 0.2)
	ms = append(ms, Measurement{VP: geo.Point{Lat: 0, Lon: 0}, RTTMs: -1})
	ms = append(ms, Measurement{VP: geo.Point{Lat: 0, Lon: 0}, RTTMs: math.NaN()})
	if _, ok := oneTarget(ms).LocateSubset(0, nil, geo.TwoThirdsC); !ok {
		t.Fatal("unresponsive entries should be skipped")
	}
}

func TestLocateErrors(t *testing.T) {
	if _, ok := oneTarget(nil).LocateSubset(0, nil, geo.TwoThirdsC); ok {
		t.Error("no VP: want no estimate")
	}
	if _, ok := oneTarget([]Measurement{{RTTMs: -5}}).LocateSubset(0, nil, geo.TwoThirdsC); ok {
		t.Error("no responsive VP: want no estimate")
	}
	// Disjoint constraints: two tiny disks an ocean apart.
	ms := []Measurement{
		{VP: geo.Point{Lat: 0, Lon: 0}, RTTMs: 1},
		{VP: geo.Point{Lat: 0, Lon: 90}, RTTMs: 1},
	}
	if _, ok := oneTarget(ms).LocateSubset(0, nil, geo.TwoThirdsC); ok {
		t.Error("empty intersection: want no estimate")
	}
}

func TestShortestPing(t *testing.T) {
	target := geo.Point{Lat: 52, Lon: 13}
	ms := syntheticMeasurements(target, []float64{500, 20, 800}, 0.2)
	got, err := ShortestPing(ms)
	if err != nil {
		t.Fatal(err)
	}
	want := ms[1].VP
	if got != want {
		t.Errorf("shortest ping picked %v, want %v", got, want)
	}
	if _, err := ShortestPing(nil); err != ErrNoMeasurements {
		t.Error("empty input should error")
	}
}

// TestConstraintsRadiusScalesWithSpeed: a disk's radius grows with the
// speed constant, so two VPs whose 4/9c disks are disjoint can still
// intersect at 2/3c.
func TestConstraintsRadiusScalesWithSpeed(t *testing.T) {
	a, b := geo.Point{Lat: 0, Lon: 0}, geo.Point{Lat: 0, Lon: 20}
	// Each RTT covers 0.6 of the gap at 2/3c, 0.4 of it at 4/9c.
	rtt := geo.DistanceToRTTMs(0.6*geo.Distance(a, b), geo.TwoThirdsC)
	mat := oneTarget([]Measurement{{VP: a, RTTMs: rtt}, {VP: b, RTTMs: rtt}})
	if _, ok := mat.LocateSubset(0, nil, geo.TwoThirdsC); !ok {
		t.Error("2/3c disks should intersect")
	}
	if _, ok := mat.LocateSubset(0, nil, geo.FourNinthsC); ok {
		t.Error("4/9c disks should be disjoint")
	}
}

func TestMatrixLocateSubsetMatchesSlowPath(t *testing.T) {
	target := geo.Point{Lat: 45.5, Lon: 9.2}
	dists := []float64{60, 90, 150, 220, 340, 510}
	ms := syntheticMeasurements(target, dists, 0.15)

	ref := region(ms, geo.TwoThirdsC)
	slow, ok := ref.Centroid()
	if !ok {
		t.Fatal("reference region is empty")
	}
	fast, ok := oneTarget(ms).LocateSubset(0, nil, geo.TwoThirdsC)
	if !ok {
		t.Fatal("fast path found no region")
	}
	// The fast path stores RTTs as float32, so the sampling grids differ
	// slightly between the two paths; they must agree to a few km.
	if d := geo.Distance(slow, fast); d > 5 {
		t.Errorf("fast path diverges from slow path by %.2f km", d)
	}
}

func TestMatrixSubsetRestricts(t *testing.T) {
	target := geo.Point{Lat: 45.5, Lon: 9.2}
	mat := oneTarget(syntheticMeasurements(target, []float64{50, 2000}, 0.1))

	onlyFar, ok := mat.LocateSubset(0, []int{1}, geo.TwoThirdsC)
	if !ok {
		t.Fatal("far-only subset should still locate")
	}
	all, _ := mat.LocateSubset(0, nil, geo.TwoThirdsC)
	if geo.Distance(all, target) >= geo.Distance(onlyFar, target) {
		t.Error("using the close VP should improve accuracy")
	}
}

func TestMatrixUnresponsiveDefault(t *testing.T) {
	mat := NewMatrix([]geo.Point{{Lat: 1, Lon: 1}}, 2, nil)
	if _, ok := mat.LocateSubset(0, nil, geo.TwoThirdsC); ok {
		t.Error("all-unresponsive matrix should not locate")
	}
	if _, ok := mat.ShortestPingSubset(1, nil); ok {
		t.Error("all-unresponsive matrix should not shortest-ping")
	}
}

func TestMatrixShortestPingSubset(t *testing.T) {
	vps := []geo.Point{{Lat: 1, Lon: 1}, {Lat: 2, Lon: 2}, {Lat: 3, Lon: 3}}
	mat := oneTarget([]Measurement{{VP: vps[0], RTTMs: 10}, {VP: vps[1], RTTMs: 5}, {VP: vps[2], RTTMs: 20}})
	got, ok := mat.ShortestPingSubset(0, nil)
	if !ok || got != vps[1] {
		t.Errorf("shortest ping = %v ok=%v", got, ok)
	}
	got, ok = mat.ShortestPingSubset(0, []int{0, 2})
	if !ok || got != vps[0] {
		t.Errorf("subset shortest ping = %v ok=%v", got, ok)
	}
}

func TestClosestVPs(t *testing.T) {
	vps := []geo.Point{{}, {}, {}, {}, {}}
	mat := NewMatrix(vps, 1, nil)
	rtts := []float32{30, 10, Unresponsive, 20, 40}
	for i, r := range rtts {
		mat.SetRow(i, []float32{r})
	}
	got := mat.ClosestVPs(nil, 0, nil, 3)
	want := []int{1, 3, 0}
	if !slices.Equal(got, want) {
		t.Fatalf("ClosestVPs = %v, want %v", got, want)
	}
	// Ask for more than available.
	if got := mat.ClosestVPs(nil, 0, nil, 10); len(got) != 4 {
		t.Errorf("ClosestVPs(10) returned %d entries, want 4 responsive", len(got))
	}
}

// TestMatrixLayout: SetRow scatters a VP's row into the target columns,
// LatBand lists the VPs by latitude with ties in index order, and every
// cell IsUnresponsive reads as missing is NaN or negative.
func TestMatrixLayout(t *testing.T) {
	vps := []geo.Point{{Lat: 10}, {Lat: -5}, {Lat: 10}, {Lat: 40}}
	mat := NewMatrix(vps, 3, nil)
	if mat.Targets() != 3 {
		t.Fatalf("Targets = %d, want 3", mat.Targets())
	}
	mat.SetRow(2, []float32{1, 2, 3})
	for tg, want := range []float32{1, 2, 3} {
		col := mat.Column(tg)
		if len(col) != len(vps) || col[2] != want || !IsUnresponsive(col[0]) {
			t.Fatalf("column %d = %v after SetRow(2, …)", tg, col)
		}
	}
	if got := mat.LatBand(math.Inf(-1), math.Inf(1)); !slices.Equal(got, []int32{1, 0, 2, 3}) {
		t.Errorf("LatBand(all) = %v, want [1 0 2 3]", got)
	}
	lat10 := mat.VPTrig(0).LatRad
	if got := mat.LatBand(lat10, lat10); !slices.Equal(got, []int32{0, 2}) {
		t.Errorf("LatBand(10°) = %v, want [0 2]", got)
	}
	for _, v := range []float32{Unresponsive, -1} {
		if !IsUnresponsive(v) {
			t.Errorf("IsUnresponsive(%v) = false", v)
		}
	}
	if IsUnresponsive(0.5) {
		t.Error("IsUnresponsive(0.5) = true")
	}
}
