package world

import "fmt"

// Config controls world generation. All sizes refer to pre-sanitization
// counts: the sanitizer later removes the corrupted hosts, leaving the
// paper's working datasets (723 anchors, ~10k probes).
type Config struct {
	// Seed drives every random decision in the generator.
	Seed uint64

	// Cities is the total number of cities across all continents.
	Cities int
	// ASes is the number of non-tier-1 autonomous systems.
	ASes int
	// Tier1ASes is the number of globally-present transit providers.
	Tier1ASes int

	// Probes is the number of RIPE-Atlas-like probes (before sanitization).
	Probes int
	// AnchorsPerContinent is the post-sanitization anchor/target count per
	// continent; the paper's Table in §4.1.2 fixes these.
	AnchorsPerContinent map[Continent]int

	// CorruptAnchors / CorruptProbes is how many extra hosts are planted
	// with wrong reported geolocation (the paper's sanitizer removes 9
	// anchors and 96 probes, §4.3).
	CorruptAnchors int
	CorruptProbes  int

	// BadCityFrac is the per-continent probability that a city's access
	// probes suffer heavily inflated last-mile delay (§5.1.5).
	BadCityFrac map[Continent]float64

	// MaxAnchorsPerCity caps anchor concentration so anchors spread over
	// hundreds of cities as in the paper (723 anchors in 441 cities).
	MaxAnchorsPerCity int

	// SparseRepAnchors is how many anchors have under-populated /24s whose
	// representatives fall back to random in-prefix addresses (8 in §4.1.3).
	SparseRepAnchors int

	// POIDensityPerKPop is the number of mapping-service points of interest
	// per thousand inhabitants of a zone; POIBasePerZone is the
	// population-independent floor (every town has a handful of amenities
	// with websites).
	POIDensityPerKPop float64
	POIBasePerZone    int
	// MaxPOIsPerZone caps POI generation in megacity zones.
	MaxPOIsPerZone int
	// POIWebsiteFrac is the fraction of POIs that advertise a website.
	POIWebsiteFrac float64
	// WebsiteLocalFracCenter / WebsiteLocalFracOuter are the probabilities
	// that a POI's website is locally hosted, for central business zones
	// versus outer zones (local hosting concentrates downtown, where the
	// anchors also live).
	WebsiteLocalFracCenter float64
	WebsiteLocalFracOuter  float64
	// WebsiteCDNFrac is the probability a website is served by a CDN; the
	// remainder is hosted in a remote datacenter.
	WebsiteCDNFrac float64
	// ZipMatchLocalProb / ZipMatchRemoteProb are the probabilities that the
	// entity's registered postal code matches the queried zip, for locally
	// hosted versus remotely hosted sites (remote entities usually register
	// a headquarters address elsewhere).
	ZipMatchLocalProb  float64
	ZipMatchRemoteProb float64
	// ChainProb is the probability a POI belongs to a chain whose website
	// appears in many zip codes (the street level paper's third check).
	ChainProb float64
	// SiteAliveProb is the probability the website answers DNS + wget.
	SiteAliveProb float64
}

// DefaultConfig returns the paper-scale configuration: ~10k probes, 732
// anchors (723 after sanitization, with the exact per-continent counts from
// §4.1.2), ~3.5k ASes.
func DefaultConfig() Config {
	return Config{
		Seed:      20231024, // IMC 2023 opening day
		Cities:    1500,
		ASes:      3476,
		Tier1ASes: 18,
		Probes:    10096, // 96 are corrupted and later sanitized away
		// The paper's per-continent counts (§4.1.2) sum to 718 for 723
		// targets; the five unaccounted targets are assigned to the three
		// best-covered continents here so the total matches.
		AnchorsPerContinent: map[Continent]int{
			Asia: 134, Africa: 16, Oceania: 18,
			NorthAmerica: 126, Europe: 402, SouthAmerica: 27,
		},
		CorruptAnchors: 9,
		CorruptProbes:  96,
		BadCityFrac: map[Continent]float64{
			Asia: 0.22, Africa: 0.03, Oceania: 0.12,
			NorthAmerica: 0.20, Europe: 0.26, SouthAmerica: 0.22,
		},
		MaxAnchorsPerCity:      2,
		SparseRepAnchors:       8,
		POIDensityPerKPop:      6.0,
		POIBasePerZone:         14,
		MaxPOIsPerZone:         300,
		POIWebsiteFrac:         0.6,
		WebsiteLocalFracCenter: 0.20,
		WebsiteLocalFracOuter:  0.05,
		WebsiteCDNFrac:         0.55,
		ZipMatchLocalProb:      0.45,
		ZipMatchRemoteProb:     0.10,
		ChainProb:              0.30,
		SiteAliveProb:          0.85,
	}
}

// TinyConfig returns a small world for unit tests: tens of probes, a few
// dozen anchors, generated in milliseconds.
func TinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Cities = 70
	cfg.ASes = 90
	cfg.Tier1ASes = 4
	cfg.Probes = 305
	cfg.AnchorsPerContinent = map[Continent]int{
		Asia: 6, Africa: 2, Oceania: 2, NorthAmerica: 8, Europe: 18, SouthAmerica: 2,
	}
	cfg.CorruptAnchors = 2
	cfg.CorruptProbes = 5
	cfg.SparseRepAnchors = 2
	return cfg
}

// MediumConfig returns an intermediate world for benchmarks: large enough
// for the accuracy shapes to appear, small enough for testing.B iterations.
func MediumConfig() Config {
	cfg := DefaultConfig()
	cfg.Cities = 350
	cfg.ASes = 600
	cfg.Tier1ASes = 8
	cfg.Probes = 2024
	cfg.AnchorsPerContinent = map[Continent]int{
		Asia: 28, Africa: 4, Oceania: 4, NorthAmerica: 26, Europe: 80, SouthAmerica: 6,
	}
	cfg.CorruptAnchors = 3
	cfg.CorruptProbes = 20
	cfg.SparseRepAnchors = 3
	return cfg
}

// ParseScale maps a scale name — tiny, medium or paper — to its Config.
func ParseScale(name string) (Config, error) {
	switch name {
	case "tiny":
		return TinyConfig(), nil
	case "medium":
		return MediumConfig(), nil
	case "paper":
		return DefaultConfig(), nil
	}
	return Config{}, fmt.Errorf("unknown scale %q (want tiny, medium or paper)", name)
}

// TotalAnchors returns the number of anchors generated (post-sanitization
// target count plus the corrupted extras).
func (c Config) TotalAnchors() int {
	n := c.CorruptAnchors
	for _, v := range c.AnchorsPerContinent {
		n += v
	}
	return n
}
