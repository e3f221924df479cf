// Package web models the websites behind the mapping service's points of
// interest and the street level paper's three locally-hosted checks
// (§3.2 of the replication, Section 3.2 of the street level paper):
//
//  1. the entity's registered postal code must match the queried zip code;
//  2. the content must not be served by a CDN;
//  3. the website must not appear in multiple zip codes (chains).
//
// Only ~2.5% of candidate websites survive the cascade at paper scale, and
// a fraction of the survivors are still *not* locally hosted (remote
// datacenter hosting that the checks cannot detect) — which is why the
// paper's additional latency checks shrink the landmark counts further
// (Fig 5b).
package web

import (
	"sync/atomic"

	"geoloc/internal/faults"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/mapping"
	"geoloc/internal/rhash"
	"geoloc/internal/world"
)

// Hosting is where a website's server actually runs.
type Hosting int

// Hosting classes.
const (
	Local    Hosting = iota // on premises, at the POI
	CDN                     // content delivery network edge
	RemoteDC                // rented server in a remote datacenter
)

// String implements fmt.Stringer.
func (h Hosting) String() string {
	switch h {
	case Local:
		return "local"
	case CDN:
		return "cdn"
	default:
		return "remote-dc"
	}
}

// Website is the resolved web presence of a POI.
type Website struct {
	// Key identifies the site (equal to the POI key).
	Key uint64
	// POILoc is where the owning entity physically is.
	POILoc geo.Point
	// CityID is the POI's city.
	CityID int
	// Hosting is the true hosting class.
	Hosting Hosting
	// RegisteredZip is the postal code on the entity's site/registration.
	RegisteredZip int
	// Chain reports whether the site belongs to a multi-outlet chain.
	Chain bool
	// Alive reports whether DNS + wget succeed.
	Alive bool
	// Stale reports that POILoc is stale/mis-geolocated data injected by
	// the fault layer (diagnostic only: a real pipeline cannot see this).
	Stale bool
	// Server is the host actually serving the content; for Local hosting it
	// sits at the POI, otherwise wherever the CDN/datacenter is.
	Server world.Host
}

// Resolver derives websites from POIs, deterministically per world.
type Resolver struct {
	W *world.World
	// Faults, when non-nil, injects stale/mis-geolocated landmark data:
	// with StaleLandmarkProb a site's advertised location (POILoc, the
	// coordinates street-level estimates map targets onto) drifts up to
	// StaleDriftMaxKm from the POI's true position. The server itself
	// stays where it is — the data is wrong, not the machine.
	Faults *faults.Profile
	// cdnAS is the AS standing in for the big CDNs: the AS with the widest
	// PoP footprint.
	cdnAS int
	// cdnPoP[city] is the CDN AS's PoP city nearest to city, the edge that
	// serves every CDN-hosted site there (nearestPoP, filled once).
	cdnPoP []int

	staleSites atomic.Int64
}

// NewResolver builds a website resolver for the world.
func NewResolver(w *world.World) *Resolver {
	widest, max := 0, -1
	for i := range w.ASes {
		if len(w.ASes[i].PoPs) > max {
			widest, max = i, len(w.ASes[i].PoPs)
		}
	}
	cdnPoP := make([]int, len(w.Cities))
	for city := range cdnPoP {
		cdnPoP[city] = nearestPoP(w, widest, city)
	}
	return &Resolver{W: w, cdnAS: widest, cdnPoP: cdnPoP}
}

// Resolve returns the website of a POI. The result is deterministic in the
// POI key. Calling Resolve on a POI without a website is allowed (the
// returned site simply fails the Alive check).
func (r *Resolver) Resolve(poi mapping.POI) Website {
	w := r.W
	cfg := w.Cfg
	st := rhash.New(cfg.Seed, rhash.HashString("website"), poi.Key)

	city := &w.Cities[poi.CityID]
	localFrac := cfg.WebsiteLocalFracOuter
	if poi.Zone == 0 || poi.Zone <= cityCentreZones {
		localFrac = cfg.WebsiteLocalFracCenter
	}
	var hosting Hosting
	switch u := st.Float64(); {
	case u < localFrac:
		hosting = Local
	case u < localFrac+cfg.WebsiteCDNFrac:
		hosting = CDN
	default:
		hosting = RemoteDC
	}

	zipMatchProb := cfg.ZipMatchRemoteProb
	if hosting == Local {
		zipMatchProb = cfg.ZipMatchLocalProb
	}
	registeredZip := poi.Zip
	if !st.Bool(zipMatchProb) {
		// Registered elsewhere: a different zone of the same city, or the
		// owning organization's HQ in another city.
		if st.Bool(0.6) {
			registeredZip = city.Zip(st.Intn(city.NumZones()))
		} else {
			other := &w.Cities[st.Intn(len(w.Cities))]
			registeredZip = other.Zip(st.Intn(other.NumZones()))
		}
		if registeredZip == poi.Zip {
			registeredZip = city.Zip((poi.Zone + 1) % city.NumZones())
		}
	}

	site := Website{
		Key:           poi.Key,
		POILoc:        poi.Loc,
		CityID:        poi.CityID,
		Hosting:       hosting,
		RegisteredZip: registeredZip,
		Chain:         st.Bool(cfg.ChainProb),
		Alive:         poi.HasWebsite && st.Bool(cfg.SiteAliveProb),
	}
	site.Server = r.serverFor(poi, hosting, st)
	if brg, dist, stale := r.Faults.StaleDrift(cfg.Seed, poi.Key); stale {
		site.POILoc = geo.Destination(poi.Loc, brg, dist)
		site.Stale = true
		r.staleSites.Add(1)
	}
	return site
}

// StaleSites returns how many resolved sites carried stale coordinates
// (resolutions, not distinct sites — resolving twice counts twice).
func (r *Resolver) StaleSites() int64 { return r.staleSites.Load() }

// cityCentreZones is the number of leading zones considered "central
// business district" for local-hosting probability.
const cityCentreZones = 8

// serverFor places the host that actually serves the site.
func (r *Resolver) serverFor(poi mapping.POI, hosting Hosting, st *rhash.Stream) world.Host {
	w := r.W
	switch hosting {
	case Local:
		asID := r.pickCityAS(poi.CityID, st)
		return world.Host{
			ID:         -1,
			Kind:       world.WebServer,
			Addr:       syntheticAddr(poi.Key),
			City:       poi.CityID,
			AS:         asID,
			Loc:        geo.Destination(poi.Loc, st.Range(0, 360), st.Range(0, 0.05)),
			Reported:   poi.Loc,
			LastMileMs: 0.08 + st.Exp(0.12),
			RespScore:  0.97,
		}
	case CDN:
		// Served from the CDN edge nearest the client — modelled as the CDN
		// AS's PoP closest to the POI's city.
		pop := r.cdnPoP[poi.CityID]
		return world.Host{
			ID:         -1,
			Kind:       world.WebServer,
			Addr:       syntheticAddr(poi.Key ^ 0xCD),
			City:       pop,
			AS:         r.cdnAS,
			Loc:        w.Cities[pop].Loc,
			Reported:   w.Cities[pop].Loc,
			LastMileMs: 0.1,
			RespScore:  0.99,
		}
	default: // RemoteDC
		// A rented server at the hub of a random content-heavy AS.
		asID := st.Intn(len(w.ASes))
		hub := w.ASes[asID].Hub
		return world.Host{
			ID:         -1,
			Kind:       world.WebServer,
			Addr:       syntheticAddr(poi.Key ^ 0xDC),
			City:       hub,
			AS:         asID,
			Loc:        geo.Destination(w.Cities[hub].Loc, st.Range(0, 360), st.Range(0, 2)),
			Reported:   w.Cities[hub].Loc,
			LastMileMs: 0.15 + st.Exp(0.2),
			RespScore:  0.98,
		}
	}
}

// pickCityAS returns an AS with a PoP in the city, deterministically.
func (r *Resolver) pickCityAS(cityID int, st *rhash.Stream) int {
	ases := r.W.CityASes[cityID]
	if len(ases) == 0 {
		return r.cdnAS
	}
	return ases[st.Intn(len(ases))]
}

// nearestPoP returns the AS's PoP city closest to the given city.
func nearestPoP(w *world.World, asID, cityID int) int {
	pops := w.ASes[asID].PoPs
	best, bestD := pops[0], -1.0
	from := w.Cities[cityID].Loc
	for _, p := range pops {
		d := geo.Distance(from, w.Cities[p].Loc)
		if bestD < 0 || d < bestD {
			best, bestD = p, d
		}
	}
	return best
}

// syntheticAddr maps a site key into a reserved address block distinct from
// all world hosts (203.x.x.x documentation-style space).
func syntheticAddr(key uint64) ipaddr.Addr {
	return ipaddr.FromOctets(203, byte(key>>16), byte(key>>8), byte(key))
}

// CheckOutcome is the result of running the three locally-hosted checks
// plus the implicit liveness requirement.
type CheckOutcome struct {
	Alive    bool
	ZipMatch bool
	NotCDN   bool
	NotChain bool
}

// Passed reports whether the site qualifies as a landmark.
func (c CheckOutcome) Passed() bool {
	return c.Alive && c.ZipMatch && c.NotCDN && c.NotChain
}

// RunChecks executes the street level paper's locally-hosted test cascade
// for a site discovered via the given queried zip code.
func RunChecks(site Website, queriedZip int) CheckOutcome {
	return CheckOutcome{
		Alive:    site.Alive,
		ZipMatch: site.RegisteredZip == queriedZip,
		NotCDN:   site.Hosting != CDN,
		NotChain: !site.Chain,
	}
}
