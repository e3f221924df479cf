package web

import (
	"testing"

	"geoloc/internal/faults"
	"geoloc/internal/geo"
	"geoloc/internal/mapping"
	"geoloc/internal/world"
)

// stalePOIs collects a few hundred POIs from the shared world.
func stalePOIs(t *testing.T, w *world.World) []mapping.POI {
	t.Helper()
	svc := mapping.NewService(w)
	var pois []mapping.POI
	for city := 0; city < len(w.Cities) && len(pois) < 400; city++ {
		ps, ok := svc.POIsInZip(city, 0)
		if !ok {
			t.Fatal("faultless service failed")
		}
		pois = append(pois, ps...)
	}
	return pois
}

func TestStaleLandmarksDriftAdvertisedLocationOnly(t *testing.T) {
	w := world.Generate(world.TinyConfig())
	pois := stalePOIs(t, w)

	clean := NewResolver(w)
	dirty := NewResolver(w)
	dirty.Faults = &faults.Profile{StaleLandmarkProb: 0.4, StaleDriftMaxKm: 25}

	stale := 0
	for _, poi := range pois {
		ref := clean.Resolve(poi)
		got := dirty.Resolve(poi)
		if ref.Stale {
			t.Fatal("faultless resolver produced a stale site")
		}
		// The machine never moves: only the advertised coordinates do.
		if got.Server != ref.Server || got.Hosting != ref.Hosting ||
			got.RegisteredZip != ref.RegisteredZip || got.Alive != ref.Alive {
			t.Fatalf("fault layer changed more than POILoc for poi %x", poi.Key)
		}
		if !got.Stale {
			if got.POILoc != poi.Loc() {
				t.Fatalf("non-stale site drifted for poi %x", poi.Key)
			}
			continue
		}
		stale++
		d := geo.Distance(poi.Loc(), got.POILoc)
		if d <= 0 || d > 25.001 {
			t.Fatalf("stale drift %.2f km outside (0, 25]", d)
		}
	}
	if stale == 0 {
		t.Fatal("0.4 stale profile staled nothing")
	}
	if got := dirty.StaleSites(); got != int64(stale) {
		t.Fatalf("StaleSites() = %d, observed %d", got, stale)
	}
}

func TestStaleDriftDeterministic(t *testing.T) {
	w := world.Generate(world.TinyConfig())
	pois := stalePOIs(t, w)
	prof := &faults.Profile{StaleLandmarkProb: 0.4, StaleDriftMaxKm: 25}
	a, b := NewResolver(w), NewResolver(w)
	a.Faults, b.Faults = prof, prof
	for _, poi := range pois {
		sa, sb := a.Resolve(poi), b.Resolve(poi)
		if sa.Stale != sb.Stale || sa.POILoc != sb.POILoc {
			t.Fatalf("stale drift not deterministic for poi %x", poi.Key)
		}
	}
}
