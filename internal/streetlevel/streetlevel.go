// Package streetlevel implements the three-tier street-level geolocation
// technique of Wang et al. (NSDI 2011) as replicated in the paper (§3.2):
//
//   - Tier 1: CBG from the vantage points (RIPE Atlas anchors here) at
//     4/9c, falling back to 2/3c when the intersection is empty.
//   - Tier 2: concentric circles (R = 5 km, α = 36°) around the tier-1
//     centroid; sample points are reverse-geocoded, their zip codes are
//     mined for locally hosted websites, and traceroute RTT differences
//     (D1 + D2) estimate each landmark's delay to the target.
//   - Tier 3: the same with finer granularity (R = 1 km, α = 10°) around
//     the tier-2 centroid; the target maps to the landmark with the
//     smallest delay.
//
// Following the replication (§3.2.2), traceroutes to each landmark are
// issued only from the ten vantage points with the lowest RTT to the
// target, and D1/D2 are computed by plain RTT subtraction — the source of
// the noise the paper documents in §5.2.3 and appendix B.
package streetlevel

import (
	"math"
	"slices"
	"sync"

	"geoloc/internal/core"
	"geoloc/internal/geo"
	"geoloc/internal/mapping"
	"geoloc/internal/netsim"
	"geoloc/internal/telemetry"
	"geoloc/internal/web"
)

// pipelineMeters holds a pipeline's instrumentation handles, resolved once
// against its campaign's registry (all nil when that is).
type pipelineMeters struct {
	geolocations   *telemetry.Counter
	methodLandmark *telemetry.Counter
	methodCBG      *telemetry.Counter
	fallbackSpeed  *telemetry.Counter
	landmarks      *telemetry.Histogram
}

func newPipelineMeters(reg *telemetry.Registry) pipelineMeters {
	return pipelineMeters{
		geolocations:   reg.Counter("streetlevel.geolocations"),
		methodLandmark: reg.Counter("streetlevel.method_landmark"),
		methodCBG:      reg.Counter("streetlevel.method_cbg"),
		fallbackSpeed:  reg.Counter("streetlevel.fallback_speed"),
		landmarks: reg.Histogram("streetlevel.landmarks",
			[]float64{0, 5, 10, 25, 50, 100, 250}),
	}
}

// The street level paper's parameters (§3.2), fixed.
const (
	// tier2StepKm and tier2Points define tier 2's concentric circles:
	// radius grows by tier2StepKm and each circle carries tier2Points
	// sample points (360/α with α = 36°). tier2MaxCircles caps the sweep.
	tier2StepKm     = 5
	tier2Points     = 10
	tier2MaxCircles = 40
	// tier3StepKm and tier3Points define tier 3's finer sweep (α = 10°).
	// tier3MaxCircles caps it: its 1 km steps make a wide sweep both
	// pointless — the premise is street-level refinement — and expensive.
	tier3StepKm     = 1
	tier3Points     = 36
	tier3MaxCircles = 20
	// numVPs is how many lowest-RTT vantage points run traceroutes (the
	// replication's overhead reduction, §3.2.2).
	numVPs = 10
	// latencyCheckMaxRTTMs is the RTT ceiling of the §5.2.2 latency
	// check. The paper uses 1 ms on the real Internet; the simulator's
	// metro RTT floor is slightly higher (see DESIGN.md), so the threshold
	// scales with it.
	latencyCheckMaxRTTMs = 1.5
	// tier1Speed is the tier-1 speed of Internet (4/9c per the street
	// level paper); fallbackSpeed is used when the 4/9c region is empty
	// (2/3c, needed for 5 targets in the paper).
	tier1Speed    = geo.FourNinthsC
	fallbackSpeed = geo.TwoThirdsC
)

// fan2 and fan3 are the bearing tables of tier2Points and tier3Points,
// shared by every sweep.
var fan2, fan3 = geo.NewFan(tier2Points), geo.NewFan(tier3Points)

// Config holds the technique's one ablation.
type Config struct {
	// DelayAggregation selects how per-VP D1+D2 sums combine into one
	// landmark delay: "median" is an ablation that trades bias for
	// robustness; anything else, the zero value included, is the papers'
	// minimum (an upper bound argument).
	DelayAggregation string
}

// Landmark is a website that passed the locally-hosted checks, with its
// estimated delay to the target.
type Landmark struct {
	Site web.Website
	// Zip is the queried zip code the site was discovered through.
	Zip int
	// Tier is 2 or 3, whichever sweep discovered the landmark first.
	Tier int
	// DelayMs is min over vantage points of D1+D2; math.NaN() when no
	// vantage point produced a common hop.
	DelayMs float64
	// Usable reports whether DelayMs is a non-negative, usable estimate.
	Usable bool
}

// Result is the outcome of geolocating one target.
type Result struct {
	// Target is the campaign target index.
	Target int
	// Tier1 is the CBG estimate seeding tier 2; Tier1OK is false when even
	// the fallback speed produced no region (the estimate then falls back
	// to the lowest-RTT vantage point's location).
	Tier1   geo.Point
	Tier1OK bool
	// UsedFallbackSpeed reports that 4/9c gave an empty region and 2/3c was
	// used (5 targets in the paper, §5.2.1).
	UsedFallbackSpeed bool
	// Estimate is the final geolocation; Method is "landmark" when a
	// landmark was selected, "cbg" when the technique fell back to tier 1
	// (46 targets in the paper).
	Estimate geo.Point
	Method   string
	// Landmarks are all landmarks discovered for the target (tiers 2+3,
	// deduplicated by site key).
	Landmarks []Landmark
	// NegativeDelayFrac is the fraction of landmarks whose best D1+D2 came
	// out negative (Fig 6a).
	NegativeDelayFrac float64
	// MappingQueries and WebsiteTests count the tier-2/3 service load;
	// LookupFailures is how many of the mapping queries the (faulty)
	// service failed — each one silently shrinks the landmark pool.
	MappingQueries int
	WebsiteTests   int
	LookupFailures int
	// TierCompleted is the deepest tier whose data backs the estimate: 3
	// when a tier-3 landmark was selected, 2 for a tier-2 landmark, 1 when
	// the technique degraded all the way back to the CBG seed. A pipeline
	// losing its mapping service mid-sweep falls back tier by tier instead
	// of erroring.
	TierCompleted int
	// TimeSeconds is the simulated wall-clock time to geolocate the target
	// (Fig 6c).
	TimeSeconds float64
}

// Pipeline runs the technique over a prepared campaign.
type Pipeline struct {
	C   *core.Campaign
	Map *mapping.Service
	Web *web.Resolver
	Cfg Config

	anchorRows []int
	meters     pipelineMeters
	// scratch pools the per-target working storage (see scratch).
	scratch sync.Pool
}

// scratch is one Geolocate call's working storage, taken from the
// pipeline's pool and put back when the call returns: a warm call reuses
// the buffers earlier targets grew, so it allocates only its result's
// landmark slice. Nothing in a Result aliases it.
type scratch struct {
	// tier1 and lm hold the constraints of the tier-1 and the landmark
	// region; the reduction each one's centroid runs is what a sweep
	// reads, through tcs.
	tier1, lm geo.Sampler
	tcs       []geo.TrigCircle
	// pois receives each queried zip's POIs in turn.
	pois []mapping.POI
	// seen maps a landmark's site key to its index in landmarks, across
	// both tiers; seenZips is the zips one sweep has queried.
	seen      map[uint64]int
	seenZips  map[int]bool
	landmarks []Landmark
	pr        probe
}

// getScratch takes a scratch from the pool, emptied.
func (p *Pipeline) getScratch() *scratch {
	sc, _ := p.scratch.Get().(*scratch)
	if sc == nil {
		return &scratch{seen: make(map[uint64]int), seenZips: make(map[int]bool)}
	}
	clear(sc.seen)
	sc.landmarks = sc.landmarks[:0]
	return sc
}

// New builds a pipeline with the paper's parameters. The campaign's target
// matrix must already be built.
func New(c *core.Campaign) *Pipeline {
	return NewWithConfig(c, Config{})
}

// NewWithConfig builds a pipeline with the given delay aggregation. The
// mapping and web services inherit the campaign's fault profile, so one
// knob degrades the measurement substrate and the auxiliary services
// together, and the pipeline meters into the campaign's registry.
func NewWithConfig(c *core.Campaign, cfg Config) *Pipeline {
	m := mapping.NewService(c.W)
	r := web.NewResolver(c.W)
	m.Faults = c.FaultProfile()
	r.Faults = c.FaultProfile()
	return &Pipeline{
		C:          c,
		Map:        m,
		Web:        r,
		Cfg:        cfg,
		anchorRows: c.AnchorVPIndices(),
		meters:     newPipelineMeters(c.Metrics),
	}
}

// saltSL namespaces street-level measurement randomness by target.
func saltSL(target, kind int) uint64 {
	return 0x517e_0000 + uint64(target)*16 + uint64(kind)
}

// Geolocate runs the full three-tier technique for one target.
func (p *Pipeline) Geolocate(target int) Result {
	res := Result{Target: target, Method: "cbg"}
	defer func() {
		p.meters.geolocations.Inc()
		if res.Method == "landmark" {
			p.meters.methodLandmark.Inc()
		} else {
			p.meters.methodCBG.Inc()
		}
		if res.UsedFallbackSpeed {
			p.meters.fallbackSpeed.Inc()
		}
		p.meters.landmarks.Observe(float64(len(res.Landmarks)))
	}()
	c := p.C
	sc := p.getScratch()
	defer p.scratch.Put(sc)

	// ---- Tier 1: CBG from the anchors at 4/9c (2/3c fallback).
	est, ok, speed := p.tier1Region(&sc.tier1, target)
	if ok {
		res.Tier1, res.Tier1OK = est, true
	} else if sp, ok := c.TargetRTT.ShortestPingSubset(target, p.anchorRows); ok {
		res.Tier1 = sp
	} else {
		return res // unreachable target: nothing responded
	}
	res.UsedFallbackSpeed = speed != tier1Speed
	res.Estimate = res.Tier1
	res.TimeSeconds += p.C.Platform.RoundSeconds(saltSL(target, 0))

	// The ten lowest-RTT vantage points run all traceroutes.
	p.measureProbe(&sc.pr, target)

	// ---- Tier 2: coarse sweep around the tier-1 centroid.
	p.sweep(&res, sc, 2, res.Tier1, &sc.tier1, tier2StepKm, fan2, tier2MaxCircles)
	res.TimeSeconds += p.C.Platform.RoundSeconds(saltSL(target, 2))

	// New region from usable landmark delays, the tier-1 region when they
	// give none.
	center2, region2 := res.Tier1, &sc.tier1
	if est, ok := landmarkRegion(&sc.lm, sc.landmarks, speed); ok {
		center2, region2 = est, &sc.lm
	}

	// ---- Tier 3: fine sweep around the tier-2 centroid.
	p.sweep(&res, sc, 3, center2, region2, tier3StepKm, fan3, tier3MaxCircles)
	res.TimeSeconds += p.C.Platform.RoundSeconds(saltSL(target, 3))
	if len(sc.landmarks) > 0 {
		res.Landmarks = slices.Clone(sc.landmarks)
	}

	// Final mapping: the landmark with the smallest usable delay, tier-3
	// landmarks preferred, tier-2 otherwise, CBG when none — each step a
	// graceful degradation to the best tier that completed with data.
	res.TierCompleted = 1
	if lm, ok := bestLandmark(res.Landmarks, 3); ok {
		res.Estimate, res.Method, res.TierCompleted = lm.Site.POILoc, "landmark", 3
	} else if lm, ok := bestLandmark(res.Landmarks, 2); ok {
		res.Estimate, res.Method, res.TierCompleted = lm.Site.POILoc, "landmark", 2
	}

	neg := 0
	for _, lm := range res.Landmarks {
		if !math.IsNaN(lm.DelayMs) && lm.DelayMs < 0 {
			neg++
		}
	}
	if len(res.Landmarks) > 0 {
		res.NegativeDelayFrac = float64(neg) / float64(len(res.Landmarks))
	}
	res.TimeSeconds += p.C.Platform.MappingSeconds(res.MappingQueries) +
		p.C.Platform.WebTestSeconds(res.WebsiteTests)
	return res
}

// tier1Region fills sm with the anchor-VP constraints at 4/9c and
// estimates their centroid, refilling it at the conservative speed when
// 4/9c is infeasible. It returns the estimate, whether there is one, and
// the speed sm was last filled at; sm's reduction is the tier-1 region
// either way.
func (p *Pipeline) tier1Region(sm *geo.Sampler, target int) (geo.Point, bool, float64) {
	for _, speed := range [...]float64{tier1Speed, fallbackSpeed} {
		sm.Reset()
		p.C.TargetRTT.AddConstraints(sm, target, p.anchorRows, speed)
		if est, ok := sm.Centroid(); ok {
			return est, true, speed
		}
	}
	return geo.Point{}, false, fallbackSpeed
}

// probe is what one target's landmark delays are measured from: the
// lowest-RTT anchor VPs, their traceroutes to the target, and the buffer
// every landmark traceroute writes its hops into in turn — each landmark
// trace is read by one landmarkDelay step and then dead. traces[i]'s hops
// live in bufs[i].
type probe struct {
	vps    []int
	traces []netsim.Trace
	bufs   []netsim.TraceBuf
	hops   netsim.TraceBuf
}

// measureProbe picks the target's numVPs lowest-RTT anchor VPs into pr
// and runs their traceroutes to it.
func (p *Pipeline) measureProbe(pr *probe, target int) {
	c := p.C
	pr.vps = c.TargetRTT.ClosestVPs(slices.Grow(pr.vps[:0], numVPs), target, p.anchorRows, numVPs)
	n := len(pr.vps)
	pr.traces = slices.Grow(pr.traces[:0], n)[:n]
	pr.bufs = slices.Grow(pr.bufs[:0], n)[:n]
	for i, vp := range pr.vps {
		pr.traces[i] = c.Platform.TraceInto(&pr.bufs[i], c.VPs[vp], c.Targets[target], saltSL(target, 1))
	}
}

// sweep walks concentric circles around center, collecting landmarks from
// every zip code whose sample points fall inside the region, and measures
// each new landmark's delay to the target. region is a sampler its caller
// has run Centroid on; the sweep tests points against the survivors of
// that reduction. Point i of circle k is geo.Destination(center,
// 360·i/points, k·stepKm) through the fan, and its membership in a
// survivor is Circle.Contains's through ContainsTrig: both bit for bit. A
// site is placed only once it passes the checks, the one step that reads
// where it is. Landmarks are appended to sc.landmarks; every buffer the
// sweep fills is sc's.
func (p *Pipeline) sweep(res *Result, sc *scratch, tier int, center geo.Point, region *geo.Sampler,
	stepKm float64, fan geo.Fan, maxCircles int) {

	sc.tcs = region.KeptTrig(sc.tcs[:0])
	tcs := sc.tcs
	fan = fan.Around(center)
	seenZips := sc.seenZips
	clear(seenZips)
	for k := 1; k <= maxCircles; k++ {
		ring := fan.At(stepKm * float64(k))
		anyInside := false
		for i := 0; i < ring.Len(); i++ {
			pt := ring.Point(i)
			if !insideAll(tcs, pt) {
				continue
			}
			anyInside = true
			place, ok := p.Map.ReverseGeocode(pt)
			res.MappingQueries++
			if !ok {
				// Failed lookup: this sample point contributes nothing, but
				// the sweep keeps walking — neighboring points usually cover
				// the same zips.
				res.LookupFailures++
				continue
			}
			if seenZips[place.Zip] {
				continue
			}
			seenZips[place.Zip] = true
			sc.pois, ok = p.Map.AppendPOIsInZip(sc.pois[:0], place.CityID, place.Zone)
			if !ok {
				// The zip stays marked as seen: re-asking would fail
				// identically (the failure draw is keyed by the query).
				res.LookupFailures++
				continue
			}
			for _, poi := range sc.pois {
				if !poi.HasWebsite {
					continue
				}
				if _, dup := sc.seen[poi.Key]; dup {
					continue
				}
				site, st := p.Web.Inspect(poi)
				res.WebsiteTests++
				if !web.RunChecks(site, place.Zip).Passed() {
					continue
				}
				p.Web.Place(&site, poi, &st)
				delay, usable := p.landmarkDelay(&sc.pr, &site, res.Target)
				sc.seen[poi.Key] = len(sc.landmarks)
				sc.landmarks = append(sc.landmarks, Landmark{
					Site:    site,
					Zip:     place.Zip,
					Tier:    tier,
					DelayMs: delay,
					Usable:  usable,
				})
			}
		}
		if !anyInside {
			break
		}
	}
}

// insideAll reports whether pt lies in every circle, true for none.
func insideAll(tcs []geo.TrigCircle, pt geo.Point) bool {
	if len(tcs) == 0 {
		return true
	}
	t := geo.MakeTrig(pt)
	for i := range tcs {
		if !tcs[i].ContainsTrig(t) {
			return false
		}
	}
	return true
}

// landmarkDelay estimates the landmark→target delay as the minimum over
// vantage points of D1+D2 (appendix B of the paper): for each VP, D1 is the
// landmark RTT minus the last common hop's RTT in the landmark traceroute,
// D2 the same in the target traceroute. Pairs whose target or landmark
// traceroute was truncated by platform faults are skipped entirely: a cut
// trace has no destination RTT, so its D1+D2 would be garbage rather than
// merely noisy. Each landmark traceroute is written into pr.hops and read
// before the next one overwrites it, and the sums live in a fixed array
// (numVPs is 10), so a landmark allocates nothing.
func (p *Pipeline) landmarkDelay(pr *probe, site *web.Website, target int) (float64, bool) {
	var arr [16]float64
	sums := arr[:0]
	for i, vp := range pr.vps {
		tt := pr.traces[i]
		if tt.Truncated {
			continue
		}
		lt := p.C.Platform.TraceInto(&pr.hops, p.C.VPs[vp], &site.Server, saltSL(target, 4))
		if lt.Truncated || !lt.DstResponded {
			continue
		}
		ai, bi, ok := netsim.LastCommonHop(lt, tt)
		if !ok {
			continue
		}
		d1 := lt.DstRTTMs - lt.Hops[ai].RTTMs
		d2 := tt.DstRTTMs - tt.Hops[bi].RTTMs
		sums = append(sums, d1+d2)
	}
	if len(sums) == 0 {
		return math.NaN(), false
	}
	var delay float64
	if p.Cfg.DelayAggregation == "median" {
		slices.Sort(sums)
		delay = sums[len(sums)/2]
	} else {
		delay = sums[0]
		for _, s := range sums[1:] {
			if s < delay {
				delay = s
			}
		}
	}
	return delay, delay >= 0
}

// landmarkRegion fills sm with the usable landmarks' delays as constraints
// at speed and estimates their centroid, the centre of tier 3. ok is false
// when no landmark is usable or the intersection is empty.
func landmarkRegion(sm *geo.Sampler, landmarks []Landmark, speed float64) (geo.Point, bool) {
	sm.Reset()
	sm.Grow(len(landmarks))
	for _, lm := range landmarks {
		if lm.Usable {
			sm.Add(geo.Circle{Center: lm.Site.POILoc, RadiusKm: geo.RTTToDistanceKm(lm.DelayMs, speed)})
		}
	}
	return sm.Centroid()
}

// bestLandmark returns the usable landmark with the smallest delay in the
// given tier (0 matches any tier).
func bestLandmark(landmarks []Landmark, tier int) (Landmark, bool) {
	best := -1
	for i, lm := range landmarks {
		if !lm.Usable {
			continue
		}
		if tier != 0 && lm.Tier != tier {
			continue
		}
		if best < 0 || lm.DelayMs < landmarks[best].DelayMs {
			best = i
		}
	}
	if best < 0 {
		return Landmark{}, false
	}
	return landmarks[best], true
}

// ClosestLandmark returns the oracle estimate of §5.2.1: the landmark
// geographically closest to the target's true location (lower bound of the
// technique's error). ok is false when the target has no landmarks.
func ClosestLandmark(res Result, truth geo.Point) (geo.Point, bool) {
	best, bestD := -1, math.Inf(1)
	for i, lm := range res.Landmarks {
		if d := geo.Distance(lm.Site.POILoc, truth); d < bestD {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return geo.Point{}, false
	}
	return res.Landmarks[best].Site.POILoc, true
}

// LatencyCheck re-validates a landmark the way §5.2.2's third column does:
// the target (an anchor, so it can measure) pings the landmark and keeps it
// only when the RTT is below latencyCheckMaxRTTMs.
func (p *Pipeline) LatencyCheck(target int, lm Landmark) bool {
	rtt, ok := p.C.Platform.Ping(p.C.Targets[target], &lm.Site.Server, saltSL(target, 5))
	return ok && rtt < latencyCheckMaxRTTMs
}
