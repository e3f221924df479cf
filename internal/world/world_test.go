package world

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"geoloc/internal/asclass"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
)

// tiny caches one generated tiny world for the whole test binary; the
// generator is deterministic so sharing is safe for read-only tests.
var tiny = Generate(TinyConfig())

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(TinyConfig())
	b := Generate(TinyConfig())
	if len(a.Hosts) != len(b.Hosts) {
		t.Fatalf("host counts differ: %d vs %d", len(a.Hosts), len(b.Hosts))
	}
	for i := range a.Hosts {
		if a.Hosts[i] != b.Hosts[i] {
			t.Fatalf("host %d differs between runs", i)
		}
	}
	for i := range a.Cities {
		if a.Cities[i].Loc != b.Cities[i].Loc {
			t.Fatalf("city %d differs between runs", i)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg := TinyConfig()
	cfg.Seed++
	b := Generate(cfg)
	if tiny.Cities[0].Loc == b.Cities[0].Loc {
		t.Error("different seeds should move cities")
	}
}

func TestAnchorCounts(t *testing.T) {
	cfg := TinyConfig()
	want := cfg.CorruptAnchors
	for _, n := range cfg.AnchorsPerContinent {
		want += n
	}
	if len(tiny.Anchors) != want {
		t.Errorf("anchors = %d, want %d", len(tiny.Anchors), want)
	}
	corrupted := 0
	byCont := make(map[Continent]int)
	for _, id := range tiny.Anchors {
		h := tiny.Host(id)
		if h.Corrupted {
			corrupted++
			continue
		}
		byCont[tiny.CityOf(h).Continent]++
	}
	if corrupted != cfg.CorruptAnchors {
		t.Errorf("corrupted anchors = %d, want %d", corrupted, cfg.CorruptAnchors)
	}
	for ct, want := range cfg.AnchorsPerContinent {
		if byCont[ct] != want {
			t.Errorf("continent %s anchors = %d, want %d", ct, byCont[ct], want)
		}
	}
}

func TestProbeCounts(t *testing.T) {
	cfg := TinyConfig()
	if len(tiny.Probes) != cfg.Probes {
		t.Errorf("probes = %d, want %d", len(tiny.Probes), cfg.Probes)
	}
	corrupted := 0
	for _, id := range tiny.Probes {
		if tiny.Host(id).Corrupted {
			corrupted++
		}
	}
	if corrupted != cfg.CorruptProbes {
		t.Errorf("corrupted probes = %d, want %d", corrupted, cfg.CorruptProbes)
	}
}

func TestCorruptedHostsReportFarAway(t *testing.T) {
	for _, h := range tiny.Hosts {
		if h.Corrupted {
			if d := geo.Distance(h.Loc, h.Reported); d < 1000 {
				t.Errorf("corrupted host %d reported only %.0f km away", h.ID, d)
			}
		} else if h.Loc != h.Reported {
			t.Errorf("clean host %d has Reported != Loc", h.ID)
		}
	}
}

func TestRepresentativesShareAnchorPrefix(t *testing.T) {
	for anchorID, reps := range tiny.Reps {
		a := tiny.Host(anchorID)
		for _, rid := range reps {
			r := tiny.Host(rid)
			if !ipaddr.SamePrefix24(a.Addr, r.Addr) {
				t.Errorf("rep %d not in anchor %d's /24: %s vs %s", rid, anchorID, r.Addr, a.Addr)
			}
			if r.AS != a.AS {
				t.Errorf("rep %d in different AS from anchor %d", rid, anchorID)
			}
			if r.Kind != Representative {
				t.Errorf("rep %d has kind %v", rid, r.Kind)
			}
		}
	}
}

func TestEveryAnchorHasReps(t *testing.T) {
	for _, id := range tiny.Anchors {
		if _, ok := tiny.Reps[id]; !ok {
			t.Errorf("anchor %d has no representatives", id)
		}
	}
}

func TestSparseRepAnchors(t *testing.T) {
	cfg := TinyConfig()
	if len(tiny.SparseRepAnchors) != cfg.SparseRepAnchors {
		t.Errorf("sparse-rep anchors = %d, want %d", len(tiny.SparseRepAnchors), cfg.SparseRepAnchors)
	}
	// Sparse anchors must have at least one low-responsiveness rep.
	for anchorID := range tiny.SparseRepAnchors {
		low := false
		for _, rid := range tiny.Reps[anchorID] {
			if tiny.Host(rid).RespScore < 0.6 {
				low = true
			}
		}
		if !low {
			t.Errorf("sparse anchor %d has no low-responsiveness rep", anchorID)
		}
	}
}

func TestNormalRepsNearAnchor(t *testing.T) {
	for anchorID, reps := range tiny.Reps {
		if tiny.SparseRepAnchors[anchorID] {
			continue
		}
		a := tiny.Host(anchorID)
		for _, rid := range reps {
			r := tiny.Host(rid)
			if d := geo.Distance(a.Loc, r.Loc); d > 2 {
				t.Errorf("normal rep %d is %.1f km from anchor", rid, d)
			}
		}
	}
}

func TestHostAddressesUnique(t *testing.T) {
	seen := make(map[ipaddr.Addr]bool, len(tiny.Hosts))
	for _, h := range tiny.Hosts {
		if seen[h.Addr] {
			t.Fatalf("duplicate address %s", h.Addr)
		}
		seen[h.Addr] = true
	}
}

func TestHostsAreInTheirCity(t *testing.T) {
	for i := range tiny.Hosts {
		h := &tiny.Hosts[i]
		c := tiny.CityOf(h)
		if d := geo.Distance(h.Loc, c.Loc); d > c.RadiusKm+2 {
			t.Errorf("host %d (%v) is %.1f km from city center (radius %.1f)",
				h.ID, h.Kind, d, c.RadiusKm)
		}
	}
}

func TestHostASHasPoPInCity(t *testing.T) {
	for i := range tiny.Hosts {
		h := &tiny.Hosts[i]
		if !tiny.ASOf(h).HasPoP(h.City) {
			t.Errorf("host %d homed in AS %d with no PoP in city %d", h.ID, h.AS, h.City)
		}
	}
}

func TestCitiesCoverAllContinents(t *testing.T) {
	seen := make(map[Continent]int)
	for _, c := range tiny.Cities {
		seen[c.Continent]++
		b := continentBoxes[c.Continent]
		if c.Loc.Lat < b.latMin || c.Loc.Lat > b.latMax || c.Loc.Lon < b.lonMin || c.Loc.Lon > b.lonMax {
			t.Errorf("city %s outside its continent box", c.Name)
		}
	}
	for _, ct := range AllContinents {
		if seen[ct] < 8 {
			t.Errorf("continent %s has only %d cities", ct, seen[ct])
		}
	}
}

func TestASPoPsSortedAndValid(t *testing.T) {
	for _, a := range tiny.ASes {
		if len(a.PoPs) == 0 {
			t.Fatalf("AS %d has no PoPs", a.ID)
		}
		for i, c := range a.PoPs {
			if c < 0 || c >= len(tiny.Cities) {
				t.Fatalf("AS %d PoP %d out of range", a.ID, c)
			}
			if i > 0 && a.PoPs[i-1] >= c {
				t.Fatalf("AS %d PoPs not strictly sorted", a.ID)
			}
		}
		if !a.HasPoP(a.Hub) {
			t.Errorf("AS %d hub %d not among its PoPs", a.ID, a.Hub)
		}
	}
}

func TestHasPoPBinarySearch(t *testing.T) {
	a := AS{PoPs: []int{2, 5, 9, 14}}
	for _, c := range []int{2, 5, 9, 14} {
		if !a.HasPoP(c) {
			t.Errorf("HasPoP(%d) = false", c)
		}
	}
	for _, c := range []int{0, 3, 10, 99} {
		if a.HasPoP(c) {
			t.Errorf("HasPoP(%d) = true", c)
		}
	}
}

func TestAnchorCategoryMixRoughlyMatchesPaper(t *testing.T) {
	big := Generate(MediumConfig())
	tally := asclass.NewTally()
	for _, id := range big.Anchors {
		tally.Add(big.ASOf(big.Host(id)).Cat)
	}
	// Content+Access+Transit dominate for anchors (Table 2).
	frac := tally.Fraction(asclass.Content) + tally.Fraction(asclass.Access) +
		tally.Fraction(asclass.TransitAccess)
	if frac < 0.75 {
		t.Errorf("content+access+transit anchor share = %.2f, want > 0.75", frac)
	}
}

func TestProbeCategoryMixAccessDominates(t *testing.T) {
	tally := asclass.NewTally()
	for _, id := range tiny.Probes {
		tally.Add(tiny.ASOf(tiny.Host(id)).Cat)
	}
	if f := tally.Fraction(asclass.Access); f < 0.6 {
		t.Errorf("access probe share = %.2f, want > 0.6 (paper: 75.2%%)", f)
	}
}

func TestZoneRoundTrip(t *testing.T) {
	c := &tiny.Cities[0]
	for z := 0; z < c.NumZones(); z++ {
		center := c.ZoneCenter(z)
		got := c.ZoneOf(center)
		if got != z {
			t.Errorf("zone %d center maps back to zone %d", z, got)
		}
	}
}

func TestZipRoundTrip(t *testing.T) {
	c := &tiny.Cities[3]
	for z := 0; z < c.NumZones(); z++ {
		zip := c.Zip(z)
		back, ok := c.ZipZone(zip)
		if !ok || back != z {
			t.Errorf("Zip/ZipZone round trip failed for zone %d", z)
		}
	}
	if _, ok := c.ZipZone(99); ok {
		t.Error("foreign zip should not resolve")
	}
	if _, ok := c.ZipZone(c.ZipPrefix*100 + c.NumZones()); ok {
		t.Error("out-of-range zone should not resolve")
	}
}

func TestZoneOfClampsOutsidePoints(t *testing.T) {
	c := &tiny.Cities[0]
	far := geo.Destination(c.Loc, 45, c.RadiusKm*3)
	z := c.ZoneOf(far)
	if z < 0 || z >= c.NumZones() {
		t.Errorf("outside point mapped to invalid zone %d", z)
	}
}

func TestBadLastMileCitiesInflateProbes(t *testing.T) {
	big := Generate(MediumConfig())
	var badSum, badN, goodSum, goodN float64
	for _, id := range big.Probes {
		h := big.Host(id)
		if big.ASOf(h).Cat != asclass.Access {
			continue
		}
		if big.CityOf(h).BadLastMile {
			badSum += h.LastMileMs
			badN++
		} else {
			goodSum += h.LastMileMs
			goodN++
		}
	}
	if badN == 0 || goodN == 0 {
		t.Skip("medium world lacks one of the groups")
	}
	if badSum/badN < 2*(goodSum/goodN) {
		t.Errorf("bad-city access probes (%.1f ms avg) not clearly worse than good (%.1f ms)",
			badSum/badN, goodSum/goodN)
	}
}

func TestAnchorsWellConnected(t *testing.T) {
	for _, id := range tiny.Anchors {
		if lm := tiny.Host(id).LastMileMs; lm > 2.0 {
			t.Errorf("anchor %d last mile %.2f ms, anchors should be well connected", id, lm)
		}
	}
}

func TestPopGridBuilt(t *testing.T) {
	if tiny.PopGrid == nil {
		t.Fatal("PopGrid not built")
	}
	c := tiny.Cities[tiny.Host(tiny.Anchors[0]).City]
	if d := tiny.PopGrid.DensityAt(c.Loc); d <= 0 {
		t.Errorf("density at anchor city = %v", d)
	}
}

func TestHostKindStrings(t *testing.T) {
	if Probe.String() != "probe" || Anchor.String() != "anchor" ||
		Representative.String() != "representative" || WebServer.String() != "webserver" ||
		Generic.String() != "generic" {
		t.Error("HostKind strings wrong")
	}
}

func TestContinentCodes(t *testing.T) {
	want := map[Continent]string{Asia: "AS", Africa: "AF", Oceania: "OC",
		NorthAmerica: "NA", Europe: "EU", SouthAmerica: "SA"}
	for c, s := range want {
		if c.Code() != s {
			t.Errorf("%d.Code() = %q, want %q", int(c), c.Code(), s)
		}
	}
	if Continent(77).Code() != "C77" {
		t.Error("out-of-range code")
	}
}

func TestProbeAndAnchorHostResolution(t *testing.T) {
	ph := tiny.ProbeHosts()
	if len(ph) != len(tiny.Probes) {
		t.Fatalf("ProbeHosts len = %d", len(ph))
	}
	for i, h := range ph {
		if h.ID != tiny.Probes[i] {
			t.Fatalf("ProbeHosts[%d] mismatch", i)
		}
	}
	ah := tiny.AnchorHosts()
	if len(ah) != len(tiny.Anchors) {
		t.Fatalf("AnchorHosts len = %d", len(ah))
	}
}

// TestParseScale: each scale name yields its Config, and anything else —
// a numeric scale included, which the streaming pipeline parses — is an
// error naming the value.
func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Config
		ok   bool
	}{
		{"tiny", TinyConfig(), true},
		{"medium", MediumConfig(), true},
		{"paper", DefaultConfig(), true},
		{"galactic", Config{}, false},
		{"Tiny", Config{}, false},
		{"", Config{}, false},
		{"50000", Config{}, false},
	} {
		got, err := ParseScale(tc.name)
		switch {
		case tc.ok && err != nil:
			t.Errorf("ParseScale(%q): %v", tc.name, err)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown scale %q", tc.name))):
			t.Errorf("ParseScale(%q) err = %v, want unknown scale", tc.name, err)
		case !reflect.DeepEqual(got, tc.want):
			t.Errorf("ParseScale(%q) = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
