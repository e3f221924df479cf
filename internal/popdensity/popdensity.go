// Package popdensity provides a synthetic stand-in for the "Gridded
// Population of the World v4" dataset the paper uses for Fig 6b and Fig 8
// (appendix C). It derives a people-per-km² density field from the
// simulator's city inventory: each city contributes a Gaussian population
// kernel, on top of a small latitude-dependent rural base.
package popdensity

import (
	"math"

	"geoloc/internal/geo"
)

// City is the population-bearing input to the grid: a settlement with a
// location, a total population, and a characteristic radius.
type City struct {
	Loc        geo.Point
	Population float64
	RadiusKm   float64
}

// Grid answers point density queries against a set of cities. Cities are
// bucketed into 1-degree cells so a lookup only visits nearby cities: a
// cell's cities are the span of one shared slice that its map entry
// names, in input order.
type Grid struct {
	cells  map[cellKey]cellSpan
	cities []City
	// RuralBase is the people/km² floor outside any city kernel.
	RuralBase float64
}

// cellSpan is a cell's cities: Grid.cities[end-n : end] once Build has
// filed them.
type cellSpan struct{ end, n int32 }

type cellKey struct{ lat, lon int }

func keyOf(p geo.Point) cellKey {
	return cellKey{lat: int(math.Floor(p.Lat)), lon: int(math.Floor(p.Lon))}
}

// Build constructs a Grid from the given cities. A city's kernel is
// negligible beyond ~4 sigma, so it is registered in every cell its
// influence can reach: one pass counts each cell's cities, and a second
// lays the cells out in the order it first reaches them and files their
// cities in input order.
func Build(cities []City) *Grid {
	g := &Grid{cells: make(map[cellKey]cellSpan), RuralBase: 2}
	var total int32
	for _, c := range cities {
		forCells(c, func(k cellKey) {
			sp, ok := g.cells[k]
			if !ok {
				sp.end = -1 // not laid out yet
			}
			sp.n++
			total++
			g.cells[k] = sp
		})
	}
	g.cities = make([]City, total)
	var next int32
	for _, c := range cities {
		forCells(c, func(k cellKey) {
			sp := g.cells[k]
			if sp.end < 0 {
				sp.end, next = next, next+sp.n
			}
			g.cities[sp.end] = c
			sp.end++
			g.cells[k] = sp
		})
	}
	return g
}

// forCells calls f with every cell city c's kernel can reach.
func forCells(c City, f func(cellKey)) {
	cellsSpan := int(math.Ceil(4*c.RadiusKm/111)) + 1
	base := keyOf(c.Loc)
	for dl := -cellsSpan; dl <= cellsSpan; dl++ {
		for dn := -cellsSpan; dn <= cellsSpan; dn++ {
			f(cellKey{lat: base.lat + dl, lon: base.lon + dn})
		}
	}
}

// DensityAt returns the population density (people/km²) at the point. The
// result is always at least RuralBase (the GPW grid has no true zeros over
// land, and all simulator hosts are on land).
func (g *Grid) DensityAt(p geo.Point) float64 {
	d := g.RuralBase * ruralLatFactor(p.Lat)
	sp := g.cells[keyOf(p)]
	for _, c := range g.cities[sp.end-sp.n : sp.end] {
		sigma := c.RadiusKm
		if sigma < 1 {
			sigma = 1
		}
		dist := geo.Distance(p, c.Loc)
		// 2-D Gaussian kernel normalized so the kernel integrates to the
		// city population: peak density = pop / (2π sigma²).
		peak := c.Population / (2 * math.Pi * sigma * sigma)
		d += peak * math.Exp(-dist*dist/(2*sigma*sigma))
	}
	return d
}

// ruralLatFactor makes high latitudes emptier, peaking in the temperate and
// tropical bands where the simulator places its continents.
func ruralLatFactor(lat float64) float64 {
	a := math.Abs(lat)
	switch {
	case a > 65:
		return 0.1
	case a > 50:
		return 0.6
	default:
		return 1
	}
}
