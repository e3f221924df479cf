package web

import (
	"testing"

	"geoloc/internal/geo"
	"geoloc/internal/mapping"
	"geoloc/internal/world"
)

var (
	tw  = world.Generate(world.TinyConfig())
	svc = mapping.NewService(tw)
	res = NewResolver(tw)
)

// allPOIs gathers a decent sample of POIs across cities.
func allPOIs(limit int) []mapping.POI {
	var out []mapping.POI
	for i := range tw.Cities {
		for zone := 0; zone < tw.Cities[i].NumZones(); zone++ {
			pois, _ := svc.POIsInZip(i, zone)
			out = append(out, pois...)
			if len(out) >= limit {
				return out
			}
		}
	}
	return out
}

func TestResolveDeterministic(t *testing.T) {
	pois := allPOIs(50)
	for _, poi := range pois {
		a := res.Resolve(poi)
		b := res.Resolve(poi)
		if a.Key != b.Key || a.Hosting != b.Hosting || a.RegisteredZip != b.RegisteredZip ||
			a.Server.Addr != b.Server.Addr || a.Server.Loc != b.Server.Loc {
			t.Fatal("Resolve not deterministic")
		}
	}
}

func TestLocalSitesServeFromPOI(t *testing.T) {
	found := false
	for _, poi := range allPOIs(5000) {
		site := res.Resolve(poi)
		if site.Hosting != Local {
			continue
		}
		found = true
		if d := geo.Distance(site.Server.Loc, poi.Loc); d > 0.2 {
			t.Fatalf("local server %.2f km from POI", d)
		}
		if site.Server.City != poi.CityID {
			t.Fatal("local server in wrong city")
		}
	}
	if !found {
		t.Fatal("no locally hosted site in sample")
	}
}

func TestRemoteSitesServeElsewhere(t *testing.T) {
	far := 0
	total := 0
	for _, poi := range allPOIs(5000) {
		site := res.Resolve(poi)
		if site.Hosting != RemoteDC {
			continue
		}
		total++
		if geo.Distance(site.Server.Loc, poi.Loc) > 100 {
			far++
		}
	}
	if total == 0 {
		t.Fatal("no remote-DC site in sample")
	}
	if float64(far)/float64(total) < 0.5 {
		t.Errorf("only %d/%d remote sites serve >100 km away", far, total)
	}
}

func TestHostingMixRoughlyMatchesConfig(t *testing.T) {
	counts := map[Hosting]int{}
	pois := allPOIs(8000)
	for _, poi := range pois {
		counts[res.Resolve(poi).Hosting]++
	}
	total := float64(len(pois))
	cdnFrac := float64(counts[CDN]) / total
	if cdnFrac < tw.Cfg.WebsiteCDNFrac-0.1 || cdnFrac > tw.Cfg.WebsiteCDNFrac+0.1 {
		t.Errorf("CDN fraction = %.2f, config %.2f", cdnFrac, tw.Cfg.WebsiteCDNFrac)
	}
	if counts[Local] == 0 || counts[RemoteDC] == 0 {
		t.Error("hosting classes missing from mix")
	}
}

func TestChecksCDNAlwaysFails(t *testing.T) {
	for _, poi := range allPOIs(3000) {
		site := res.Resolve(poi)
		if site.Hosting == CDN {
			if RunChecks(site, poi.Zip).Passed() {
				t.Fatal("CDN-hosted site passed the checks")
			}
		}
	}
}

func TestChecksZipMismatchFails(t *testing.T) {
	for _, poi := range allPOIs(3000) {
		site := res.Resolve(poi)
		out := RunChecks(site, poi.Zip+100000) // certainly foreign zip
		if out.ZipMatch {
			t.Fatal("foreign zip reported as matching")
		}
		if out.Passed() {
			t.Fatal("site passed with foreign zip")
		}
	}
}

func TestPassRateIsLow(t *testing.T) {
	// Only a small minority of websites pass the cascade (2.5% in the
	// paper, §5.2.2). Allow a loose band; the exact value is calibrated at
	// full scale.
	pois := allPOIs(20000)
	passed, total := 0, 0
	for _, poi := range pois {
		if !poi.HasWebsite {
			continue
		}
		total++
		if RunChecks(res.Resolve(poi), poi.Zip).Passed() {
			passed++
		}
	}
	if total == 0 {
		t.Fatal("no websites in sample")
	}
	rate := float64(passed) / float64(total)
	if rate < 0.003 || rate > 0.15 {
		t.Errorf("pass rate = %.3f, want low single digits", rate)
	}
}

func TestPassedSitesSkewLocal(t *testing.T) {
	localPassed, passed := 0, 0
	for _, poi := range allPOIs(30000) {
		if !poi.HasWebsite {
			continue
		}
		site := res.Resolve(poi)
		if RunChecks(site, poi.Zip).Passed() {
			passed++
			if site.Hosting == Local {
				localPassed++
			}
		}
	}
	if passed == 0 {
		t.Fatal("nothing passed")
	}
	frac := float64(localPassed) / float64(passed)
	if frac < 0.3 {
		t.Errorf("only %.0f%% of passing landmarks are truly local; latency checks would strip too many", 100*frac)
	}
	if frac > 0.95 {
		t.Errorf("%.0f%% of passing landmarks are local; the paper's latency checks would be pointless", 100*frac)
	}
}

func TestDeadSiteFailsAlive(t *testing.T) {
	for _, poi := range allPOIs(3000) {
		if poi.HasWebsite {
			continue
		}
		site := res.Resolve(poi)
		if site.Alive {
			t.Fatal("site without website should not be alive")
		}
		if RunChecks(site, poi.Zip).Passed() {
			t.Fatal("dead site passed")
		}
	}
}

func TestHostingString(t *testing.T) {
	if Local.String() != "local" || CDN.String() != "cdn" || RemoteDC.String() != "remote-dc" {
		t.Error("hosting strings wrong")
	}
}

func TestServerHostsPingable(t *testing.T) {
	// Web servers must be usable as netsim endpoints: valid city/AS/loc.
	for _, poi := range allPOIs(2000) {
		s := res.Resolve(poi).Server
		if s.City < 0 || s.City >= len(tw.Cities) {
			t.Fatalf("server city %d out of range", s.City)
		}
		if s.AS < 0 || s.AS >= len(tw.ASes) {
			t.Fatalf("server AS %d out of range", s.AS)
		}
		if !s.Loc.Valid() {
			t.Fatal("server location invalid")
		}
	}
}

// TestResolverCDNPoPTable: the per-city CDN edge table NewResolver fills is
// nearestPoP for every city, and a CDN-hosted site is served from its
// city's entry.
func TestResolverCDNPoPTable(t *testing.T) {
	if len(res.cdnPoP) != len(tw.Cities) {
		t.Fatalf("table has %d entries for %d cities", len(res.cdnPoP), len(tw.Cities))
	}
	for city, pop := range res.cdnPoP {
		if want := nearestPoP(tw, res.cdnAS, city); pop != want {
			t.Fatalf("city %d: table says PoP %d, nearestPoP says %d", city, pop, want)
		}
	}
	cdn := 0
	for _, poi := range allPOIs(2000) {
		site := res.Resolve(poi)
		if site.Hosting != CDN {
			continue
		}
		cdn++
		if want := nearestPoP(tw, res.cdnAS, poi.CityID); site.Server.City != want {
			t.Fatalf("POI %d in city %d: CDN site served from city %d, want %d", poi.Key, poi.CityID, site.Server.City, want)
		}
	}
	if cdn == 0 {
		t.Fatal("no CDN-hosted site in the sample")
	}
}
