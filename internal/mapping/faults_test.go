package mapping

import (
	"math"
	"slices"
	"testing"

	"geoloc/internal/faults"
	"geoloc/internal/par"
)

// faultySvc returns a service over the shared tiny world with a heavy
// lookup-failure profile.
func faultySvc(prob float64) *Service {
	s := NewService(tw)
	s.Faults = &faults.Profile{LookupFailProb: prob}
	return s
}

func TestLookupFailuresInjected(t *testing.T) {
	s := faultySvc(0.3)
	fails := 0
	for i := 0; i < len(tw.Cities); i++ {
		if _, ok := s.ReverseGeocode(tw.Cities[i].Loc); !ok {
			fails++
		}
		if _, ok := s.POIsInZip(i, 0); !ok {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("0.3 lookup-failure profile failed nothing")
	}
	if got := s.LookupFailures(); got != int64(fails) {
		t.Fatalf("LookupFailures() = %d, observed %d", got, fails)
	}
}

func TestLookupFailuresDeterministicAcrossInstances(t *testing.T) {
	a, b := faultySvc(0.3), faultySvc(0.3)
	for i := 0; i < len(tw.Cities); i++ {
		_, okA := a.ReverseGeocode(tw.Cities[i].Loc)
		_, okB := b.ReverseGeocode(tw.Cities[i].Loc)
		if okA != okB {
			t.Fatalf("city %d: instance A ok=%v, B ok=%v", i, okA, okB)
		}
		pA, okA := a.POIsInZip(i, 1)
		pB, okB := b.POIsInZip(i, 1)
		if okA != okB || len(pA) != len(pB) {
			t.Fatalf("city %d POIs: A (ok=%v,n=%d) B (ok=%v,n=%d)", i, okA, len(pA), okB, len(pB))
		}
	}
}

func TestFailedLookupStaysFailed(t *testing.T) {
	s := faultySvc(0.5)
	for i := 0; i < len(tw.Cities); i++ {
		_, first := s.POIsInZip(i, 0)
		for retry := 0; retry < 3; retry++ {
			if _, ok := s.POIsInZip(i, 0); ok != first {
				t.Fatalf("city %d zone 0: retrying an identical failed query changed the outcome", i)
			}
		}
	}
}

func TestNilFaultsNeverFail(t *testing.T) {
	s := NewService(tw)
	for i := 0; i < len(tw.Cities); i++ {
		if _, ok := s.ReverseGeocode(tw.Cities[i].Loc); !ok {
			t.Fatal("faultless service failed a reverse geocode")
		}
		if _, ok := s.POIsInZip(i, 0); !ok {
			t.Fatal("faultless service failed a POI query")
		}
	}
	if s.LookupFailures() != 0 {
		t.Fatalf("faultless service counted %d failures", s.LookupFailures())
	}
}

func TestResetStatsClearsLookupFailures(t *testing.T) {
	s := faultySvc(0.9)
	for i := 0; i < len(tw.Cities); i++ {
		s.POIsInZip(i, 0)
	}
	if s.LookupFailures() == 0 {
		t.Fatal("0.9 profile failed nothing")
	}
	s.ResetStats()
	if s.LookupFailures() != 0 {
		t.Fatal("ResetStats left the failure counter")
	}
}

// TestAppendPOIsInZipMatches holds AppendPOIsInZip, run under par.For with
// one buffer per worker and a sentinel POI ahead of each answer, to
// POIsInZip on a second service: for every zone of every city, plus
// out-of-range zones and unknown cities, under none and hostile. The
// hostile profile fails some queries, which must append nothing.
func TestAppendPOIsInZipMatches(t *testing.T) {
	type query struct{ city, zone int }
	var qs []query
	for i := range tw.Cities {
		for z := -1; z <= tw.Cities[i].NumZones(); z++ {
			qs = append(qs, query{i, z})
		}
	}
	qs = append(qs, query{-1, 0}, query{len(tw.Cities), 0}, query{math.MaxInt, 0})
	sentinel := POI{Key: 0xfeed}
	for _, prof := range []*faults.Profile{faults.None(), faults.Hostile()} {
		t.Run(prof.Name, func(t *testing.T) {
			prod, ref := NewService(tw), NewService(tw)
			prod.Faults, ref.Faults = prof, prof
			got := make([][]POI, len(qs))
			gotOK := make([]bool, len(qs))
			bufs := make([][]POI, par.Workers(len(qs)))
			par.ForWorker(len(qs), func(w, i int) {
				bufs[w], gotOK[i] = prod.AppendPOIsInZip(append(bufs[w][:0], sentinel), qs[i].city, qs[i].zone)
				got[i] = slices.Clone(bufs[w])
			})
			failed, answered := 0, 0
			for i, q := range qs {
				want, ok := ref.POIsInZip(q.city, q.zone)
				if gotOK[i] != ok {
					t.Fatalf("city %d zone %d: ok %v, POIsInZip %v", q.city, q.zone, gotOK[i], ok)
				}
				if got[i][0] != sentinel || !slices.Equal(got[i][1:], want) {
					t.Fatalf("city %d zone %d: appended %d POIs, POIsInZip %d", q.city, q.zone, len(got[i])-1, len(want))
				}
				if !ok {
					failed++
				} else if len(want) > 0 {
					answered++
				}
			}
			if answered == 0 || (prof.Name == "hostile") != (failed > 0) {
				t.Errorf("%d answered, %d failed: a path went unexercised", answered, failed)
			}
			gr, gp := prod.Stats()
			wr, wp := ref.Stats()
			if gr != wr || gp != wp || prod.LookupFailures() != ref.LookupFailures() {
				t.Errorf("stats %d/%d/%d, POIsInZip %d/%d/%d", gr, gp, prod.LookupFailures(), wr, wp, ref.LookupFailures())
			}
		})
	}
}

// TestAppendPOIsInZipAllocs pins a POI query into a buffer that already
// holds the zone at zero allocations, failed draw or not.
func TestAppendPOIsInZipAllocs(t *testing.T) {
	for _, prof := range []*faults.Profile{faults.None(), faults.Hostile()} {
		s := NewService(tw)
		s.Faults = prof
		buf := make([]POI, 0, tw.Cfg.MaxPOIsPerZone)
		if n := testing.AllocsPerRun(100, func() {
			for z := range 4 {
				buf, _ = s.AppendPOIsInZip(buf[:0], 1, z)
			}
		}); n != 0 {
			t.Errorf("%s: AppendPOIsInZip into a sized buffer allocates %.0f", prof.Name, n)
		}
	}
}
