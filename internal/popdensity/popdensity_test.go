package popdensity

import (
	"math"
	"math/rand"
	"testing"

	"geoloc/internal/geo"
)

func metroAndVillage() *Grid {
	return Build([]City{
		{Loc: geo.Point{Lat: 48.85, Lon: 2.35}, Population: 5e6, RadiusKm: 15},
		{Loc: geo.Point{Lat: 46.0, Lon: 4.0}, Population: 2e4, RadiusKm: 3},
	})
}

func TestDensityPeaksAtCityCenter(t *testing.T) {
	g := metroAndVillage()
	center := g.DensityAt(geo.Point{Lat: 48.85, Lon: 2.35})
	suburb := g.DensityAt(geo.Destination(geo.Point{Lat: 48.85, Lon: 2.35}, 90, 20))
	rural := g.DensityAt(geo.Point{Lat: 47.5, Lon: -1.0})
	if !(center > suburb && suburb > rural) {
		t.Errorf("expected center > suburb > rural, got %.1f, %.1f, %.1f", center, suburb, rural)
	}
}

func TestMetroDensityMagnitude(t *testing.T) {
	g := metroAndVillage()
	center := g.DensityAt(geo.Point{Lat: 48.85, Lon: 2.35})
	// 5M people with a 15 km kernel peaks around 3500 people/km².
	if center < 1000 || center > 20000 {
		t.Errorf("metro center density = %.0f people/km², want plausible urban value", center)
	}
}

func TestRuralFloor(t *testing.T) {
	g := metroAndVillage()
	if d := g.DensityAt(geo.Point{Lat: 30, Lon: -100}); d <= 0 {
		t.Errorf("rural density should be positive, got %v", d)
	}
	if d := g.DensityAt(geo.Point{Lat: 30, Lon: -100}); d > 10 {
		t.Errorf("empty-land density = %v, want small", d)
	}
}

func TestHighLatitudeEmptier(t *testing.T) {
	g := Build(nil)
	mid := g.DensityAt(geo.Point{Lat: 40, Lon: 0})
	polar := g.DensityAt(geo.Point{Lat: 70, Lon: 0})
	if polar >= mid {
		t.Errorf("polar density %.2f should be below temperate %.2f", polar, mid)
	}
}

func TestVillageSmallerThanMetro(t *testing.T) {
	g := metroAndVillage()
	metro := g.DensityAt(geo.Point{Lat: 48.85, Lon: 2.35})
	village := g.DensityAt(geo.Point{Lat: 46.0, Lon: 4.0})
	if village >= metro {
		t.Errorf("village density %.0f should be below metro %.0f", village, metro)
	}
	if village < 50 {
		t.Errorf("village center density %.0f too low", village)
	}
}

func TestEmptyGrid(t *testing.T) {
	g := Build(nil)
	if d := g.DensityAt(geo.Point{Lat: 0, Lon: 0}); d != g.RuralBase {
		t.Errorf("empty grid density = %v, want rural base %v", d, g.RuralBase)
	}
}

func TestNeighboringCellLookup(t *testing.T) {
	// A point just across a 1-degree cell boundary must still see the city.
	g := Build([]City{{Loc: geo.Point{Lat: 50.01, Lon: 9.99}, Population: 1e6, RadiusKm: 12}})
	nearAcrossBoundary := g.DensityAt(geo.Point{Lat: 49.99, Lon: 10.01})
	if nearAcrossBoundary < 100 {
		t.Errorf("density across cell boundary = %.1f, city kernel not visible", nearAcrossBoundary)
	}
}

// TestDensityMatchesCellScan holds DensityAt to a reference that files
// each city, in input order, into a per-cell slice of its own and sums
// the query cell's kernels in that order: bit for bit, over overlapping
// cities of every size and queries on and between them.
func TestDensityMatchesCellScan(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cities := make([]City, 300)
	for i := range cities {
		cities[i] = City{
			Loc:        geo.Point{Lat: rng.Float64()*20 + 30, Lon: rng.Float64()*20 - 10},
			Population: rng.ExpFloat64() * 1e5,
			RadiusKm:   rng.Float64() * 60,
		}
	}
	ref := make(map[cellKey][]City)
	for _, c := range cities {
		forCells(c, func(k cellKey) { ref[k] = append(ref[k], c) })
	}
	g := Build(cities)
	for q := 0; q < 5000; q++ {
		p := geo.Point{Lat: rng.Float64()*24 + 28, Lon: rng.Float64()*24 - 12}
		if q%5 == 0 {
			p = cities[q%len(cities)].Loc
		}
		want := g.RuralBase * ruralLatFactor(p.Lat)
		for _, c := range ref[keyOf(p)] {
			sigma := max(c.RadiusKm, 1)
			dist := geo.Distance(p, c.Loc)
			want += c.Population / (2 * math.Pi * sigma * sigma) * math.Exp(-dist*dist/(2*sigma*sigma))
		}
		if got := g.DensityAt(p); got != want {
			t.Fatalf("DensityAt(%v) = %v, per-cell scan %v", p, got, want)
		}
	}
}
