package world

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"geoloc/internal/asclass"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/popdensity"
	"geoloc/internal/rhash"
)

// cityContinentWeights drives how many cities each continent gets.
var cityContinentWeights = map[Continent]float64{
	Asia: 0.25, Africa: 0.12, Oceania: 0.08,
	NorthAmerica: 0.20, Europe: 0.25, SouthAmerica: 0.10,
}

// probeContinentWeights mirrors RIPE Atlas's Europe-heavy deployment.
var probeContinentWeights = map[Continent]float64{
	Asia: 0.12, Africa: 0.045, Oceania: 0.09,
	NorthAmerica: 0.18, Europe: 0.52, SouthAmerica: 0.045,
}

// anchorBoost is how strongly a continent's probe deployment follows its
// anchors. Sparse continents (Africa) host probes almost exclusively where
// infrastructure already exists, which is why the paper finds 94% of
// African targets have a vantage point within 40 km despite the continent's
// low probe count (§5.1.5).
var anchorBoost = map[Continent]float64{
	Asia: 1, Africa: 30, Oceania: 2,
	NorthAmerica: 1, Europe: 1, SouthAmerica: 2,
}

// asCategoryWeights is the category mix of the AS population itself (as
// opposed to the per-host mixes in package asclass).
var asCategoryWeights = []struct {
	cat asclass.Category
	w   float64
}{
	{asclass.Access, 0.48},
	{asclass.Content, 0.18},
	{asclass.TransitAccess, 0.14},
	{asclass.Enterprise, 0.14},
	{asclass.Unknown, 0.06},
}

// Generate builds a deterministic world from the configuration.
func Generate(cfg Config) *World {
	w := &World{
		Cfg:              cfg,
		Reps:             make(map[int][3]int),
		SparseRepAnchors: make(map[int]bool),
		alloc:            ipaddr.NewAllocator(),
		asPrefix:         make(map[int][]ipaddr.Prefix24),
		prefixPop:        make(map[ipaddr.Prefix24]int),
	}
	w.generateCities()
	w.generateASes()
	w.generateAnchors()
	w.generateRepresentatives()
	w.generateProbes()
	w.buildPopGrid()
	w.buildCityASIndex()
	return w
}

// buildCityASIndex fills CityASes from the final PoP sets: each city's
// ASes in index order, as a span of one shared slice.
func (w *World) buildCityASIndex() {
	// end[c+1] first counts city c's ASes; the prefix sums make end[c]
	// c's start, and filing the ASes advances it to c's end.
	end := make([]int, len(w.Cities)+1)
	for i := range w.ASes {
		for _, city := range w.ASes[i].PoPs {
			end[city+1]++
		}
	}
	for c := 1; c < len(end); c++ {
		end[c] += end[c-1]
	}
	all := make([]int, end[len(end)-1])
	for i := range w.ASes {
		for _, city := range w.ASes[i].PoPs {
			all[end[city]] = i
			end[city]++
		}
	}
	w.CityASes = make(map[int][]int, len(w.Cities))
	start := 0
	for c := range w.Cities {
		if end[c] > start {
			w.CityASes[c] = all[start:end[c]:end[c]]
		}
		start = end[c]
	}
}

func (w *World) generateCities() {
	cfg := w.Cfg
	s := rhash.NewLabeled(cfg.Seed, "cities")
	for _, ct := range AllContinents {
		n := int(cityContinentWeights[ct] * float64(cfg.Cities))
		if n < 8 {
			n = 8
		}
		b := continentBoxes[ct]
		// Cities cluster into metro regions rather than spreading uniformly
		// — real Internet infrastructure (and RIPE anchors with it)
		// concentrates around population basins, which keeps most targets
		// within a few hundred kilometres of other vantage points.
		nRegions := n/16 + 2
		regions := make([]geo.Point, nRegions)
		regionW := make([]float64, nRegions)
		for r := range regions {
			regions[r] = geo.Point{
				Lat: s.Range(b.latMin, b.latMax),
				Lon: s.Range(b.lonMin, b.lonMax),
			}
			regionW[r] = s.Pareto(1, 1.2)
		}
		for i := 0; i < n; i++ {
			pop := s.Pareto(5e4, 1.0)
			if pop > 2e7 {
				pop = 2e7
			}
			// Compactness varies city by city: sprawling low-density towns
			// versus dense vertical cities. Without this jitter every city
			// centre would have the same ~2,300 people/km² (radius ∝ √pop
			// alone), flattening the population-density analyses (Fig 6b,
			// Fig 8).
			radius := math.Sqrt(pop) / 120 * s.Range(0.55, 2.1)
			if radius < 1.5 {
				radius = 1.5
			}
			center := regions[s.Choice(regionW)]
			loc := geo.Point{
				Lat: clamp(center.Lat+250/111*s.Norm(), b.latMin, b.latMax),
				Lon: clamp(center.Lon+250/111*s.Norm()/math.Cos(center.Lat*math.Pi/180), b.lonMin, b.lonMax),
			}
			id := len(w.Cities)
			w.Cities = append(w.Cities, City{
				ID:          id,
				Name:        fmt.Sprintf("%s-%03d", ct.Code(), i),
				Continent:   ct,
				Loc:         loc,
				Population:  pop,
				RadiusKm:    radius,
				HasIXP:      pop > 8e5 || s.Bool(0.15),
				BadLastMile: s.Bool(cfg.BadCityFrac[ct]),
				ZipPrefix:   1000 + id,
			})
		}
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// citiesOf returns the city IDs and population weights of one continent,
// in slices of their own: callers may rescale the weights in place.
func (w *World) citiesOf(ct Continent) ([]int, []float64) {
	n := 0
	for i := range w.Cities {
		if w.Cities[i].Continent == ct {
			n++
		}
	}
	ids := make([]int, 0, n)
	weights := make([]float64, 0, n)
	for i := range w.Cities {
		if c := &w.Cities[i]; c.Continent == ct {
			ids = append(ids, c.ID)
			weights = append(weights, c.Population)
		}
	}
	return ids, weights
}

func (w *World) generateASes() {
	cfg := w.Cfg
	s := rhash.NewLabeled(cfg.Seed, "ases")

	// Global population weights for tier-1 PoP sampling.
	allIDs := make([]int, len(w.Cities))
	allWeights := make([]float64, len(w.Cities))
	for i, c := range w.Cities {
		allIDs[i] = c.ID
		allWeights[i] = c.Population
	}

	asdbStream := rhash.NewLabeled(cfg.Seed, "asdb")
	nextASDB := func() string {
		return asclass.ASDBCategories[asdbStream.Choice(asclass.ASDBWeights)]
	}

	for i := 0; i < cfg.Tier1ASes; i++ {
		nPoPs := 30 + s.Intn(25)
		pops := samplePoPs(s, allIDs, allWeights, nPoPs)
		w.ASes = append(w.ASes, AS{
			ID:   len(w.ASes),
			ASN:  100 + len(w.ASes),
			Cat:  asclass.Tier1,
			ASDB: nextASDB(),
			PoPs: pops,
			Hub:  w.biggestCity(pops),
		})
	}

	catWeights := make([]float64, len(asCategoryWeights))
	for i, cw := range asCategoryWeights {
		catWeights[i] = cw.w
	}
	contWeights := make([]float64, len(AllContinents))
	for i, ct := range AllContinents {
		contWeights[i] = cityContinentWeights[ct]
	}
	// Each continent's cities, collected once: samplePoPs only reads them.
	var contIDs [numContinents][]int
	var contPops [numContinents][]float64
	for _, ct := range AllContinents {
		contIDs[ct], contPops[ct] = w.citiesOf(ct)
	}

	for i := 0; i < cfg.ASes; i++ {
		cat := asCategoryWeights[s.Choice(catWeights)].cat
		home := AllContinents[s.Choice(contWeights)]
		homeIDs, homeWeights := contIDs[home], contPops[home]

		var nPoPs int
		switch cat {
		case asclass.Access:
			nPoPs = 1 + int(s.Pareto(1, 1.3))
			if nPoPs > 25 {
				nPoPs = 25
			}
		case asclass.Content:
			nPoPs = 1 + s.Intn(10)
		case asclass.TransitAccess:
			nPoPs = 5 + s.Intn(35)
		case asclass.Enterprise:
			nPoPs = 1 + s.Intn(3)
		default:
			nPoPs = 1 + s.Intn(5)
		}

		pops := samplePoPs(s, homeIDs, homeWeights, nPoPs)
		// Transit providers reach into other continents.
		if cat == asclass.TransitAccess && s.Bool(0.5) {
			other := AllContinents[s.Choice(contWeights)]
			if other != home {
				pops = mergeSorted(pops, samplePoPs(s, contIDs[other], contPops[other], 2+s.Intn(4)))
			}
		}
		w.ASes = append(w.ASes, AS{
			ID:   len(w.ASes),
			ASN:  100 + len(w.ASes),
			Cat:  cat,
			ASDB: nextASDB(),
			PoPs: pops,
			Hub:  w.biggestCity(pops),
		})
	}
}

// samplePoPs draws up to n distinct cities weighted by population, sorted.
// n is at most 54, so a scan of out is the set of cities drawn so far.
func samplePoPs(s *rhash.Stream, ids []int, weights []float64, n int) []int {
	if n > len(ids) {
		n = len(ids)
	}
	out := make([]int, 0, n)
	for len(out) < n {
		if id := ids[s.Choice(weights)]; !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// mergeSorted merges two ascending, duplicate-free lists into one, each
// value once.
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

func (w *World) biggestCity(ids []int) int {
	best, bestPop := ids[0], -1.0
	for _, id := range ids {
		if w.Cities[id].Population > bestPop {
			best, bestPop = id, w.Cities[id].Population
		}
	}
	return best
}

// pickAS selects an AS of the wanted category with a PoP in the city,
// falling back to extending a same-category AS into the city. The fallback
// keeps host placement always feasible while preserving the category mix.
// Each draw is uniform over the matching ASes in index order, counted in
// one scan and found in a second, so picking allocates nothing.
func (w *World) pickAS(s *rhash.Stream, cat asclass.Category, city int) int {
	inCity := func(a *AS) bool { return a.Cat == cat && a.HasPoP(city) }
	if n := w.countASes(inCity); n > 0 {
		return w.nthAS(inCity, s.Intn(n))
	}
	ofCat := func(a *AS) bool { return a.Cat == cat }
	var id int
	if n := w.countASes(ofCat); n > 0 {
		id = w.nthAS(ofCat, s.Intn(n))
	} else {
		// No AS of this category exists (tiny worlds); use any AS.
		id = s.Intn(len(w.ASes))
	}
	w.extendPoP(id, city)
	return id
}

// countASes returns how many ASes match accepts.
func (w *World) countASes(match func(*AS) bool) int {
	n := 0
	for i := range w.ASes {
		if match(&w.ASes[i]) {
			n++
		}
	}
	return n
}

// nthAS returns the index of the k-th (from 0) AS that match accepts.
func (w *World) nthAS(match func(*AS) bool, k int) int {
	for i := range w.ASes {
		if match(&w.ASes[i]) {
			if k == 0 {
				return i
			}
			k--
		}
	}
	panic("world: nthAS past the matching ASes")
}

func (w *World) extendPoP(asID, city int) {
	a := &w.ASes[asID]
	if a.HasPoP(city) {
		return
	}
	a.PoPs = append(a.PoPs, city)
	sort.Ints(a.PoPs)
}

// anchorCatWeights converts the asclass anchor mix into Choice form.
func weightsFor(m map[asclass.Category]float64) ([]asclass.Category, []float64) {
	cats := make([]asclass.Category, 0, len(m))
	ws := make([]float64, 0, len(m))
	for _, c := range asclass.Categories {
		cats = append(cats, c)
		ws = append(ws, m[c])
	}
	return cats, ws
}

func (w *World) generateAnchors() {
	cfg := w.Cfg
	s := rhash.NewLabeled(cfg.Seed, "anchors")
	cats, catWs := weightsFor(asclass.AnchorWeights)
	perCity := make(map[int]int)

	anchorCityLocs := []geo.Point{}
	place := func(ct Continent, corrupted bool) {
		ids, weights := w.citiesOf(ct)
		// Anchors spread across many cities (723 anchors in 441 cities in
		// the paper): soften the population weighting.
		for i := range weights {
			weights[i] = math.Sqrt(weights[i])
		}
		// Hosting organisations spread anchors for coverage: reject cities
		// that already host an anchor or sit on top of an anchor city, so
		// that most targets do NOT have a second anchor a few km away —
		// matching the paper's 29 km median for anchor-only CBG.
		var cityID int
		for tries := 0; ; tries++ {
			cityID = ids[s.Choice(weights)]
			if tries > 60 {
				break
			}
			if perCity[cityID] >= cfg.MaxAnchorsPerCity {
				continue
			}
			if tries <= 40 {
				tooClose := false
				for _, p := range anchorCityLocs {
					if geo.Distance(p, w.Cities[cityID].Loc) < 12 {
						tooClose = true
						break
					}
				}
				if tooClose {
					continue
				}
			}
			break
		}
		perCity[cityID]++
		anchorCityLocs = append(anchorCityLocs, w.Cities[cityID].Loc)
		city := &w.Cities[cityID]
		// Anchors are hosted in datacenters; cities that attract an anchor
		// in practice have local interconnection — unless the city's access
		// fabric is flagged bad, in which case even local traffic detours.
		if !city.BadLastMile {
			city.HasIXP = true
		}
		cat := cats[s.Choice(catWs)]
		asID := w.pickAS(s, cat, cityID)
		loc := geo.Destination(city.Loc, s.Range(0, 360), s.Range(0, 0.4*city.RadiusKm))
		h := Host{
			ID:         len(w.Hosts),
			Kind:       Anchor,
			Addr:       w.newHostAddr(asID),
			City:       cityID,
			AS:         asID,
			Loc:        loc,
			Reported:   loc,
			LastMileMs: 0.01 + s.Exp(0.02),
			RespScore:  0.98,
		}
		if corrupted {
			h.Corrupted = true
			h.Reported = w.farawayPoint(s, loc)
		}
		w.Hosts = append(w.Hosts, h)
		w.Anchors = append(w.Anchors, h.ID)
	}

	for _, ct := range AllContinents {
		for i := 0; i < cfg.AnchorsPerContinent[ct]; i++ {
			place(ct, false)
		}
	}
	// Corrupted extras, rotating over the well-covered continents.
	extras := []Continent{Europe, NorthAmerica, Asia}
	for i := 0; i < cfg.CorruptAnchors; i++ {
		place(extras[i%len(extras)], true)
	}
}

// farawayPoint returns a plausible-looking but wrong reported location: a
// city at least 4500 km from the true location. The distance floor must
// exceed the worst-case path inflation of the delay model (cable factor ≤
// 2.3 over continental distances), otherwise a corrupted host's RTTs can
// remain consistent with its fake location and the sanitizer — correctly —
// has no physical evidence against it.
func (w *World) farawayPoint(s *rhash.Stream, truth geo.Point) geo.Point {
	for tries := 0; tries < 400; tries++ {
		c := &w.Cities[s.Intn(len(w.Cities))]
		if geo.Distance(c.Loc, truth) >= 4500 {
			return geo.Destination(c.Loc, s.Range(0, 360), s.Range(0, c.RadiusKm/2))
		}
	}
	return geo.Destination(truth, 90, 6000)
}

func (w *World) generateRepresentatives() {
	cfg := w.Cfg
	s := rhash.NewLabeled(cfg.Seed, "reps")
	for i, anchorID := range w.Anchors {
		a := &w.Hosts[anchorID]
		sparse := i < cfg.SparseRepAnchors && !a.Corrupted
		if sparse {
			w.SparseRepAnchors[anchorID] = true
		}
		var reps [3]int
		for r := 0; r < 3; r++ {
			var loc geo.Point
			var cityID int
			resp := 0.75 + s.Range(0, 0.24)
			if sparse && r > 0 {
				// Random in-prefix address: lands wherever the AS happens to
				// route that /24 — possibly another PoP city entirely.
				as := &w.ASes[a.AS]
				cityID = as.PoPs[s.Intn(len(as.PoPs))]
				city := &w.Cities[cityID]
				loc = geo.Destination(city.Loc, s.Range(0, 360), s.Range(0, city.RadiusKm))
				resp = 0.25 + s.Range(0, 0.3)
			} else {
				cityID = a.City
				loc = geo.Destination(a.Loc, s.Range(0, 360), s.Range(0, 1.5))
			}
			h := Host{
				ID:         len(w.Hosts),
				Kind:       Representative,
				Addr:       w.newHostAddrInPrefix(ipaddr.Prefix24Of(a.Addr)),
				City:       cityID,
				AS:         a.AS,
				Loc:        loc,
				Reported:   loc,
				LastMileMs: 0.1 + s.Exp(0.3),
				RespScore:  resp,
			}
			w.Hosts = append(w.Hosts, h)
			reps[r] = h.ID
		}
		w.Reps[anchorID] = reps
	}
}

func (w *World) generateProbes() {
	cfg := w.Cfg
	s := rhash.NewLabeled(cfg.Seed, "probes")
	cats, catWs := weightsFor(asclass.ProbeWeights)

	// Anchor presence boosts a city's probe weight: Atlas deployment follows
	// existing infrastructure, which is what gives African targets nearby
	// vantage points despite the continent's low overall probe count.
	anchorsInCity := make(map[int]int)
	for _, id := range w.Anchors {
		anchorsInCity[w.Hosts[id].City]++
	}

	type contCities struct {
		ids     []int
		weights []float64
	}
	byCont := make(map[Continent]contCities)
	for _, ct := range AllContinents {
		ids, weights := w.citiesOf(ct)
		for i, id := range ids {
			weights[i] = math.Pow(weights[i], 1.15) * (1 + anchorBoost[ct]*float64(anchorsInCity[id]))
		}
		byCont[ct] = contCities{ids: ids, weights: weights}
	}

	contWs := make([]float64, len(AllContinents))
	for i, ct := range AllContinents {
		contWs[i] = probeContinentWeights[ct]
	}

	// Anchor hosts also run probes: every anchor city gets one probe before
	// the weighted deployment fills the rest. This mirrors RIPE Atlas, where
	// 94-99% of the paper's targets have a vantage point within 40 km
	// (§5.1.5) even on sparsely covered continents.
	var anchorCities []int
	for cityID := range anchorsInCity {
		anchorCities = append(anchorCities, cityID)
	}
	sort.Ints(anchorCities)
	if len(anchorCities) > cfg.Probes/2 {
		anchorCities = anchorCities[:cfg.Probes/2]
	}

	for i := 0; i < cfg.Probes; i++ {
		var cityID int
		if i < len(anchorCities) {
			cityID = anchorCities[i]
		} else {
			ct := AllContinents[s.Choice(contWs)]
			cc := byCont[ct]
			cityID = cc.ids[s.Choice(cc.weights)]
		}
		city := &w.Cities[cityID]
		ct := city.Continent
		cat := cats[s.Choice(catWs)]
		asID := w.pickAS(s, cat, cityID)
		// Area-uniform placement inside the city disk.
		loc := geo.Destination(city.Loc, s.Range(0, 360), city.RadiusKm*math.Sqrt(s.Float64()))
		lastMile := probeLastMile(s, cat, city.BadLastMile)
		if ct == Africa {
			// Probes on sparse continents overwhelmingly sit in hosting
			// facilities, IXPs and NRENs rather than homes; their last mile
			// is datacenter-grade. This is what makes African targets easier
			// to geolocate than European ones despite far fewer probes
			// (Fig 4 and §5.1.5 of the paper).
			lastMile = 0.1 + 0.15*lastMile
		}
		h := Host{
			ID:         len(w.Hosts),
			Kind:       Probe,
			Addr:       w.newHostAddr(asID),
			City:       cityID,
			AS:         asID,
			Loc:        loc,
			Reported:   loc,
			LastMileMs: lastMile,
			RespScore:  0.97,
		}
		// The final CorruptProbes probes get corrupted geolocation.
		if i >= cfg.Probes-cfg.CorruptProbes {
			h.Corrupted = true
			h.Reported = w.farawayPoint(s, loc)
		}
		w.Hosts = append(w.Hosts, h)
		w.Probes = append(w.Probes, h.ID)
	}
}

// probeLastMile draws the one-way host→first-router delay by AS category.
func probeLastMile(s *rhash.Stream, cat asclass.Category, badCity bool) float64 {
	if badCity && (cat == asclass.Access || cat == asclass.Unknown) {
		return s.LogNormal(math.Log(8), 0.35)
	}
	switch cat {
	case asclass.Access:
		return s.LogNormal(math.Log(2.0), 0.9)
	case asclass.Content:
		return 0.1 + s.Exp(0.2)
	case asclass.TransitAccess:
		return 0.3 + s.Exp(0.4)
	case asclass.Enterprise:
		return s.LogNormal(math.Log(1.2), 0.6)
	case asclass.Tier1:
		return 0.15 + s.Exp(0.15)
	default:
		return s.LogNormal(math.Log(2), 0.8)
	}
}

func (w *World) buildPopGrid() {
	cities := make([]popdensity.City, len(w.Cities))
	for i, c := range w.Cities {
		cities[i] = popdensity.City{Loc: c.Loc, Population: c.Population, RadiusKm: c.RadiusKm}
	}
	w.PopGrid = popdensity.Build(cities)
}
