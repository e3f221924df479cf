package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"geoloc/internal/cbg"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/par"
	"geoloc/internal/rhash"
	"geoloc/internal/world"
)

// measureTargetBrute is MeasureTarget as it stood before the selection
// bound: every VP priced, in index order, with the RTT expression
// written out in place. It is the oracle the pruned selection must match
// bit for bit, and it shares nothing with it beyond the heap helpers.
func (s *StreamCampaign) measureTargetBrute(t int, buf []cbg.Measurement) (ipaddr.Prefix24, []cbg.Measurement) {
	st := rhash.New(s.seed, saltStreamTarget, uint64(t))
	city := &s.C.W.Cities[st.Intn(len(s.C.W.Cities))]
	bearing := st.Range(0, 360)
	dist := city.RadiusKm * math.Sqrt(st.Float64())
	loc := geo.Destination(city.Loc, bearing, dist)
	lastMile := st.Range(0.2, 4.0)
	if city.BadLastMile {
		lastMile += st.Range(4, 12)
	}
	tt := geo.MakeTrig(loc)

	k := s.Spec.VPsPerTarget
	var heap [maxVPsPerTarget]vpRTT
	n := 0
	for vp := range s.vpTrig {
		pv := rhash.New(s.seed, saltStreamPing, uint64(t), uint64(vp))
		if !pv.Bool(s.vpResp[vp]) {
			continue
		}
		d := geo.TrigDistance(s.vpTrig[vp], tt)
		inflate := 1.05 + 0.9*pv.Float64()
		rtt := geo.DistanceToRTTMs(d, geo.TwoThirdsC)*inflate +
			lastMile + s.vpLastMile[vp] + pv.Exp(0.3)
		c := vpRTT{rtt: rtt, vp: int32(vp)}
		switch {
		case n < k:
			heap[n] = c
			n++
			siftUp(heap[:n], n-1)
		case lessVPRTT(c, heap[0]):
			heap[0] = c
			siftDown(heap[:n], 0)
		}
	}
	sel := heap[:n]
	for i := 1; i < n; i++ {
		c := sel[i]
		j := i - 1
		for j >= 0 && sel[j].vp > c.vp {
			sel[j+1] = sel[j]
			j--
		}
		sel[j+1] = c
	}
	buf = buf[:0]
	for _, c := range sel {
		buf = append(buf, cbg.Measurement{VP: s.vpLoc[c.vp], RTTMs: c.rtt})
	}
	return s.TargetPrefix(t), buf
}

// sameMeasurements reports whether two measurement lists are identical
// down to the bits of every RTT.
func sameMeasurements(a, b []cbg.Measurement) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].VP != b[i].VP || math.Float64bits(a[i].RTTMs) != math.Float64bits(b[i].RTTMs) {
			return false
		}
	}
	return true
}

// TestMeasureTargetMatchesBrute proves the selection bound changes
// nothing: 50k targets for each K in {1, 4, 16, 64} on three world seeds
// — BadLastMile cities among them — plus a world so sparse that K = 64
// exceeds the responsive VPs and the bound must never fire. Targets are
// compared through the par pool, so under -race this is also the
// concurrency test of MeasureTarget's counters.
func TestMeasureTargetMatchesBrute(t *testing.T) {
	targets := 50_000
	if testing.Short() || raceEnabled {
		targets = 5_000
	}
	sparse := world.TinyConfig()
	sparse.Seed, sparse.Probes, sparse.CorruptProbes = 13, 24, 2
	sparse.AnchorsPerContinent = map[world.Continent]int{world.Europe: 6, world.Asia: 2}
	seeded := func(seed uint64) world.Config { c := world.TinyConfig(); c.Seed = seed; return c }
	worlds := []struct {
		name   string
		cfg    world.Config
		sparse bool // fewer than 64 responsive VPs for every target
	}{
		{name: "tiny", cfg: world.TinyConfig()},
		{name: "seed5", cfg: seeded(5)},
		{name: "seed9", cfg: seeded(9)},
		{name: "sparse", cfg: sparse, sparse: true},
	}
	for _, w := range worlds {
		c := NewCampaign(w.cfg)
		for _, k := range []int{1, 4, 16, 64} {
			t.Run(fmt.Sprintf("%s/k=%d", w.name, k), func(t *testing.T) {
				s, err := NewStreamCampaign(c, StreamSpec{Targets: targets, VPsPerTarget: k})
				if err != nil {
					t.Fatal(err)
				}
				type scratch struct{ got, want []cbg.Measurement }
				bufs := make([]scratch, par.Workers(targets))
				var mu sync.Mutex
				var firstBad = -1
				badLastMile, full, kept := 0, 0, 0
				par.ForWorker(targets, func(wk, tgt int) {
					b := &bufs[wk]
					var gp, wp ipaddr.Prefix24
					gp, b.got = s.MeasureTarget(tgt, b.got)
					wp, b.want = s.measureTargetBrute(tgt, b.want)
					st := rhash.New(s.seed, saltStreamTarget, uint64(tgt))
					bad := c.W.Cities[st.Intn(len(c.W.Cities))].BadLastMile
					mu.Lock()
					defer mu.Unlock()
					if (gp != wp || !sameMeasurements(b.got, b.want)) && (firstBad < 0 || tgt < firstBad) {
						firstBad = tgt
					}
					if bad {
						badLastMile++
					}
					if len(b.want) == k {
						full++
					}
					kept += len(b.want)
				})
				if firstBad >= 0 {
					gp, got := s.MeasureTarget(firstBad, nil)
					wp, want := s.measureTargetBrute(firstBad, nil)
					t.Fatalf("target %d: pruned selection %s %+v, full scan %s %+v", firstBad, gp, got, wp, want)
				}
				if badLastMile == 0 {
					t.Fatal("no target landed in a BadLastMile city")
				}
				priced, pruned := s.PricedPruned()
				if want := int64(targets) * int64(len(c.VPs)); priced+pruned != want {
					t.Fatalf("priced %d + pruned %d != %d targets x %d VPs", priced, pruned, targets, len(c.VPs))
				}
				stops := s.ringStops.Load()
				t.Logf("priced %.1f of %d per target, ring stop on %d of %d targets", float64(priced)/float64(targets), len(c.VPs), stops, targets)
				switch {
				case w.sparse && k == 64:
					// No heap ever fills, so no bound may fire: every
					// answering VP reaches the haversine and is kept.
					if full != 0 || stops != 0 || priced != int64(kept) {
						t.Fatalf("sparse world: %d targets filled K=64, %d ring stops, %d VPs priced for %d kept; want 0, 0 and equal",
							full, stops, priced, kept)
					}
				case !w.sparse && k <= 16:
					// The bound must do its job, not merely be harmless.
					if 2*priced > priced+pruned {
						t.Fatalf("bound pruned only %d of %d VPs", pruned, priced+pruned)
					}
				}
				if w.name == "tiny" && k == 16 && 2*stops < int64(targets) {
					t.Fatalf("ring stop fired on %d of %d targets; want at least half", stops, targets)
				}
			})
		}
	}
}
