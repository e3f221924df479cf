package cbg

import (
	"math"
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

func TestLocateSurroundedTarget(t *testing.T) {
	target := geo.Point{Lat: 48.8, Lon: 2.3}
	ms := syntheticMeasurements(target, []float64{100, 150, 200, 120}, 0.2)
	got, err := Locate(ms, geo.TwoThirdsC)
	if err != nil {
		t.Fatal(err)
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
	region := Constraints(ms, geo.TwoThirdsC)
	near := region.Circles[len(region.Circles)-1]
	if red := region.Reduced(); len(red.Circles) != 1 || red.Circles[0] != near {
		t.Fatalf("reduction kept %+v, want only the near VP's disk %+v", red.Circles, near)
	}
	est, err := Locate(ms, geo.TwoThirdsC)
	if err != nil {
		t.Fatal(err)
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
	if _, err := Locate(ms, geo.TwoThirdsC); err != nil {
		t.Fatalf("unresponsive entries should be skipped: %v", err)
	}
}

func TestLocateErrors(t *testing.T) {
	if _, err := Locate(nil, geo.TwoThirdsC); err != ErrNoMeasurements {
		t.Errorf("want ErrNoMeasurements, got %v", err)
	}
	if _, err := Locate([]Measurement{{RTTMs: -5}}, geo.TwoThirdsC); err != ErrNoMeasurements {
		t.Errorf("want ErrNoMeasurements, got %v", err)
	}
	// Disjoint constraints: two tiny disks an ocean apart.
	ms := []Measurement{
		{VP: geo.Point{Lat: 0, Lon: 0}, RTTMs: 1},
		{VP: geo.Point{Lat: 0, Lon: 90}, RTTMs: 1},
	}
	if _, err := Locate(ms, geo.TwoThirdsC); err != ErrEmptyRegion {
		t.Errorf("want ErrEmptyRegion, got %v", err)
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

func TestConstraintsRadiusScalesWithSpeed(t *testing.T) {
	ms := []Measurement{{VP: geo.Point{Lat: 1, Lon: 1}, RTTMs: 10}}
	fast := Constraints(ms, geo.TwoThirdsC)
	slow := Constraints(ms, geo.FourNinthsC)
	if fast.Circles[0].RadiusKm <= slow.Circles[0].RadiusKm {
		t.Error("2/3c must produce larger (more conservative) disks than 4/9c")
	}
}

func TestMatrixLocateSubsetMatchesSlowPath(t *testing.T) {
	target := geo.Point{Lat: 45.5, Lon: 9.2}
	dists := []float64{60, 90, 150, 220, 340, 510}
	ms := syntheticMeasurements(target, dists, 0.15)

	vps := make([]geo.Point, len(ms))
	for i, m := range ms {
		vps[i] = m.VP
	}
	mat := NewMatrix(vps, 1, nil)
	for i, m := range ms {
		mat.RTT[i][0] = float32(m.RTTMs)
	}

	slow, err := Locate(ms, geo.TwoThirdsC)
	if err != nil {
		t.Fatal(err)
	}
	fast, ok := mat.LocateSubset(0, nil, geo.TwoThirdsC)
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
	ms := syntheticMeasurements(target, []float64{50, 2000}, 0.1)
	vps := []geo.Point{ms[0].VP, ms[1].VP}
	mat := NewMatrix(vps, 1, nil)
	mat.RTT[0][0] = float32(ms[0].RTTMs)
	mat.RTT[1][0] = float32(ms[1].RTTMs)

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
	mat := NewMatrix(vps, 1, nil)
	mat.RTT[0][0] = 10
	mat.RTT[1][0] = 5
	mat.RTT[2][0] = 20
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
		mat.RTT[i][0] = r
	}
	got := mat.ClosestVPs(0, 3)
	want := []int{1, 3, 0}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ClosestVPs = %v, want %v", got, want)
		}
	}
	// Ask for more than available.
	if got := mat.ClosestVPs(0, 10); len(got) != 4 {
		t.Errorf("ClosestVPs(10) returned %d entries, want 4 responsive", len(got))
	}
}
