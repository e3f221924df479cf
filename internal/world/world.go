// Package world generates the synthetic Internet the replication runs on:
// continents, cities, autonomous systems, RIPE-Atlas-like probes and
// anchors, per-/24 representative addresses, and the population field.
//
// The generator is fully deterministic given Config.Seed, so experiments and
// tests can assert on exact counts. Anchors double as the replication's
// targets and as the street-level paper's vantage points, exactly as in the
// paper (§4). A configurable number of anchors and probes are planted with
// corrupted reported geolocations for the sanitizer (§4.3) to detect.
package world

import (
	"fmt"

	"geoloc/internal/asclass"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/popdensity"
)

// Continent identifies one of the six populated continents, using the
// paper's Fig 4 codes.
type Continent int

// Continents in the paper's Fig 4 legend order.
const (
	Asia Continent = iota
	Africa
	Oceania
	NorthAmerica
	Europe
	SouthAmerica
	numContinents
)

// AllContinents lists every continent in Fig 4 order.
var AllContinents = []Continent{Asia, Africa, Oceania, NorthAmerica, Europe, SouthAmerica}

// Code returns the two-letter continent code used in Fig 4.
func (c Continent) Code() string {
	switch c {
	case Asia:
		return "AS"
	case Africa:
		return "AF"
	case Oceania:
		return "OC"
	case NorthAmerica:
		return "NA"
	case Europe:
		return "EU"
	case SouthAmerica:
		return "SA"
	default:
		return fmt.Sprintf("C%d", int(c))
	}
}

// String implements fmt.Stringer.
func (c Continent) String() string { return c.Code() }

// box is a lat/lon bounding box a continent's cities are generated in. The
// boxes avoid the antimeridian so longitude math stays simple.
type box struct{ latMin, latMax, lonMin, lonMax float64 }

var continentBoxes = map[Continent]box{
	Asia:         {5, 55, 60, 145},
	Africa:       {-34, 34, -15, 45},
	Oceania:      {-45, -11, 112, 155},
	NorthAmerica: {25, 52, -125, -68},
	Europe:       {36, 62, -10, 32},
	SouthAmerica: {-38, 6, -78, -38},
}

// City is a population centre. Cities host AS points of presence, probes,
// anchors, and — via the mapping service — the points of interest whose
// websites become street-level landmarks.
type City struct {
	ID         int
	Name       string
	Continent  Continent
	Loc        geo.Point
	Population float64
	RadiusKm   float64
	// HasIXP marks cities where ASes interconnect locally; same-city paths
	// between two ASes without a local IXP detour through another city.
	HasIXP bool
	// BadLastMile marks cities whose access probes suffer heavily inflated
	// last-mile delay; this reproduces the paper's 26 European targets whose
	// nearby probes reported a median minimum RTT of 7.96 ms (§5.1.5).
	BadLastMile bool
	// ZipPrefix is the base of the city's postal codes.
	ZipPrefix int
}

// cityRings and citySectors define the polar zoning grid used for zip codes.
const (
	cityRings   = 4
	citySectors = 10
)

// NumZones returns how many postal zones the city has (a centre zone plus
// ring×sector cells).
func (c *City) NumZones() int { return 1 + cityRings*citySectors }

// ZoneOf maps a point to the index of the city zone containing it; points
// beyond the outer ring clamp to the outermost ring.
func (c *City) ZoneOf(p geo.Point) int { return c.ZoneAt(p, geo.Distance(c.Loc, p)) }

// ZoneAt is ZoneOf for a caller that already has d, the distance from the
// city to p as geo.Distance(c.Loc, p) computes it (or geo.TrigDistance in
// either order, which is the same number bit for bit).
func (c *City) ZoneAt(p geo.Point, d float64) int {
	inner := c.RadiusKm / (cityRings + 1)
	if d <= inner {
		return 0
	}
	ring := int((d - inner) / ((c.RadiusKm - inner) / cityRings))
	if ring >= cityRings {
		ring = cityRings - 1
	}
	sector := int(geo.InitialBearing(c.Loc, p) / (360.0 / citySectors))
	if sector >= citySectors {
		sector = citySectors - 1
	}
	return 1 + ring*citySectors + sector
}

// ZoneCenter returns the representative point of a zone.
func (c *City) ZoneCenter(zone int) geo.Point {
	if zone <= 0 {
		return c.Loc
	}
	zone--
	ring := zone / citySectors
	sector := zone % citySectors
	inner := c.RadiusKm / (cityRings + 1)
	rad := inner + ((c.RadiusKm-inner)/cityRings)*(float64(ring)+0.5)
	brng := (360.0 / citySectors) * (float64(sector) + 0.5)
	return geo.Destination(c.Loc, brng, rad)
}

// Zip returns the postal code of a zone.
func (c *City) Zip(zone int) int { return c.ZipPrefix*100 + zone }

// ZipZone inverts Zip for codes belonging to this city; ok is false for
// foreign codes.
func (c *City) ZipZone(zip int) (int, bool) {
	if zip/100 != c.ZipPrefix {
		return 0, false
	}
	z := zip % 100
	if z >= c.NumZones() {
		return 0, false
	}
	return z, true
}

// AS is an autonomous system with typed business category and a set of city
// points of presence.
type AS struct {
	ID   int
	ASN  int
	Cat  asclass.Category
	ASDB string
	// PoPs are the sorted city IDs where the AS has routers.
	PoPs []int
	// Hub is the AS's primary interconnection city.
	Hub int
}

// HasPoP reports whether the AS has a point of presence in the city.
func (a *AS) HasPoP(city int) bool {
	lo, hi := 0, len(a.PoPs)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.PoPs[mid] < city {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a.PoPs) && a.PoPs[lo] == city
}

// HostKind distinguishes the roles a simulated host can play.
type HostKind int

// Host kinds.
const (
	Probe HostKind = iota
	Anchor
	Representative
	WebServer
	Generic
)

// String implements fmt.Stringer.
func (k HostKind) String() string {
	switch k {
	case Probe:
		return "probe"
	case Anchor:
		return "anchor"
	case Representative:
		return "representative"
	case WebServer:
		return "webserver"
	default:
		return "generic"
	}
}

// Host is an addressable endpoint: a probe, anchor, /24 representative, or
// (ephemeral) web server.
type Host struct {
	ID   int
	Kind HostKind
	Addr ipaddr.Addr
	City int
	AS   int
	// Loc is the host's true location; geolocation error is measured
	// against it.
	Loc geo.Point
	// Reported is the geolocation the platform believes; it differs from
	// Loc for corrupted hosts until the sanitizer removes them.
	Reported geo.Point
	// LastMileMs is the one-way delay between the host and its first-hop
	// router (§4.4.2 of the paper).
	LastMileMs float64
	// Corrupted marks hosts planted with wrong reported geolocation.
	Corrupted bool
	// RespScore is the host's responsiveness score, as in the ISI hitlist:
	// the probability it answers a given probe packet.
	RespScore float64
}

// World is a fully generated synthetic Internet.
type World struct {
	Cfg    Config
	Cities []City
	ASes   []AS
	// Hosts holds every persistent host; Host.ID indexes this slice.
	Hosts []Host
	// Probes and Anchors are host IDs. Anchors double as targets and as
	// street-level vantage points.
	Probes  []int
	Anchors []int
	// Reps maps an anchor host ID to its three /24 representative host IDs.
	Reps map[int][3]int
	// SparseRepAnchors lists the anchors (8 at paper scale, §4.1.3) whose
	// /24 had too few responsive representatives, padded with random
	// in-prefix addresses that may sit far from the anchor.
	SparseRepAnchors map[int]bool
	// PopGrid is the synthetic population-density field.
	PopGrid *popdensity.Grid
	// CityASes indexes, per city, the ASes with a point of presence there
	// (built once after generation; used to home lazily-generated hosts such
	// as web servers).
	CityASes map[int][]int

	alloc     *ipaddr.Allocator
	asPrefix  map[int][]ipaddr.Prefix24 // AS ID -> allocated prefixes
	prefixPop map[ipaddr.Prefix24]int   // hosts already placed in prefix
}

// Host returns the host with the given ID. It panics on out-of-range IDs —
// host IDs only come from the world itself, so this is a programmer error.
func (w *World) Host(id int) *Host { return &w.Hosts[id] }

// CityOf returns the city a host sits in.
func (w *World) CityOf(h *Host) *City { return &w.Cities[h.City] }

// ASOf returns the AS a host is homed in.
func (w *World) ASOf(h *Host) *AS { return &w.ASes[h.AS] }

// ProbeHosts resolves the probe ID list into hosts.
func (w *World) ProbeHosts() []*Host { return w.resolve(w.Probes) }

// AnchorHosts resolves the anchor ID list into hosts.
func (w *World) AnchorHosts() []*Host { return w.resolve(w.Anchors) }

func (w *World) resolve(ids []int) []*Host {
	out := make([]*Host, len(ids))
	for i, id := range ids {
		out[i] = &w.Hosts[id]
	}
	return out
}

// newHostAddr allocates an address for a new host of the given AS, opening a
// fresh /24 when the AS has none or the current one is full.
func (w *World) newHostAddr(asID int) ipaddr.Addr {
	prefixes := w.asPrefix[asID]
	if len(prefixes) > 0 {
		last := prefixes[len(prefixes)-1]
		if w.prefixPop[last] < 250 {
			host := byte(w.prefixPop[last] + 1)
			w.prefixPop[last]++
			return last.Addr(host)
		}
	}
	p := w.alloc.NextPrefix()
	w.asPrefix[asID] = append(w.asPrefix[asID], p)
	w.prefixPop[p] = 1
	return p.Addr(1)
}

// newHostAddrInPrefix allocates the next free address inside a specific /24
// (used for representatives, which share their anchor's prefix).
func (w *World) newHostAddrInPrefix(p ipaddr.Prefix24) ipaddr.Addr {
	host := byte(w.prefixPop[p] + 1)
	w.prefixPop[p]++
	return p.Addr(host)
}
