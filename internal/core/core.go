// Package core orchestrates a full replication campaign: generate (or
// accept) a world, sanitize the platform's geolocation (§4.3), build the
// hitlist of /24 representatives (§4.1.3), and run the bulk ping campaigns
// that produce the vantage-point × target RTT matrices every experiment in
// the paper consumes.
//
// The vantage-point set for the million scale replication is probes +
// anchors (Table 2 of the paper); the target set is the sanitized anchors.
// A target never serves as its own vantage point.
package core

import (
	"context"

	"geoloc/internal/atlas"
	"geoloc/internal/cbg"
	"geoloc/internal/faults"
	"geoloc/internal/geo"
	"geoloc/internal/hitlist"
	"geoloc/internal/netsim"
	"geoloc/internal/sanitize"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

// Campaign bundles the artifacts of one measurement campaign.
type Campaign struct {
	W        *world.World
	Sim      *netsim.Sim
	Platform *atlas.Platform
	// Client, when non-nil, routes the bulk ping campaigns through the
	// resilient measurement client (retries, backoff, circuit breaker)
	// instead of the raw platform. Fault-injection campaigns set
	// it; fault-free campaigns leave it nil and keep the raw path.
	Client  *atlas.Client
	Hitlist *hitlist.Hitlist

	// SanitizedAnchors / SanitizedProbes are the host IDs surviving §4.3;
	// RemovedAnchors / RemovedProbes are the hosts the sanitizer dropped.
	SanitizedAnchors []int
	SanitizedProbes  []int
	RemovedAnchors   []int
	RemovedProbes    []int

	// Targets are the sanitized anchors (the paper's 723).
	Targets []*world.Host
	// VPs are the sanitized probes followed by the sanitized anchors — the
	// "probes + anchors" vantage-point set of Table 2.
	VPs []*world.Host

	// TargetRTT is the [vp][target] matrix of ping RTTs to the targets.
	TargetRTT *cbg.Matrix
	// RepRTT is the [vp][target] matrix of median RTTs to each target's
	// three /24 representatives (the VP-selection signal).
	RepRTT *cbg.Matrix

	// Metrics is the registry the campaign meters into and hands to what
	// it builds — its simulator, matrices, journal, and the street-level
	// pipelines and experiments run over it. Nil meters nothing.
	Metrics *telemetry.Registry
}

// Salt namespaces for the campaign's measurement randomness.
const (
	saltTargetPing uint64 = 0xCA09_0001
	saltRepPing    uint64 = 0xCA09_0010 // +rep index
)

// NewCampaign generates a world from the config and prepares an unmetered,
// fault-free campaign: sanitization and hitlist construction run
// immediately; the RTT matrices are built lazily by BuildMatrices (they
// are the expensive part).
func NewCampaign(cfg world.Config) *Campaign {
	return NewResilientCampaign(cfg, nil, nil)
}

// NewResilientCampaign generates a world and prepares a campaign whose
// measurement substrate injects the given fault profile and whose bulk
// campaigns run through the resilient client. Sanitization runs against
// the faulty substrate too — the anchor mesh has holes, which the
// sanitizer tolerates. With a disabled profile the campaign is
// bit-identical to NewCampaign; a nil profile is NewCampaign's campaign,
// on the raw platform. The campaign meters into reg (nil meters nothing).
func NewResilientCampaign(cfg world.Config, prof *faults.Profile, reg *telemetry.Registry) *Campaign {
	span := reg.StartSpan("phase.worldgen")
	w := world.Generate(cfg)
	span.End()
	sim := netsim.New(w, reg)
	sim.Faults = prof
	p := atlas.New(w, sim)
	c := &Campaign{W: w, Sim: sim, Platform: p, Metrics: reg}
	c.prepare()
	if prof != nil {
		c.Client = atlas.NewClient(p, prof)
	}
	return c
}

// prepare sanitizes the platform's inventories and builds the hitlist.
func (c *Campaign) prepare() {
	w, reg := c.W, c.Metrics
	sanSpan := reg.StartSpan("phase.sanitize")
	aRes := sanitize.Anchors(c.Platform, w.Anchors)
	pRes := sanitize.Probes(c.Platform, w.Probes, aRes.Kept)
	sanSpan.End()
	c.SanitizedAnchors = aRes.Kept
	c.RemovedAnchors = aRes.Removed
	c.SanitizedProbes = pRes.Kept
	c.RemovedProbes = pRes.Removed
	reg.Counter("sanitize.mesh_holes").Add(int64(aRes.MeshHoles))
	reg.Counter("sanitize.anchors_removed").Add(int64(len(aRes.Removed)))
	reg.Counter("sanitize.probe_holes").Add(int64(pRes.Holes))
	reg.Counter("sanitize.probes_removed").Add(int64(len(pRes.Removed)))

	hlSpan := reg.StartSpan("phase.hitlist")
	c.Hitlist = hitlist.Build(w)
	hlSpan.End()

	c.Targets = make([]*world.Host, len(c.SanitizedAnchors))
	for i, id := range c.SanitizedAnchors {
		c.Targets[i] = w.Host(id)
	}
	c.VPs = make([]*world.Host, 0, len(c.SanitizedProbes)+len(c.Targets))
	for _, id := range c.SanitizedProbes {
		c.VPs = append(c.VPs, w.Host(id))
	}
	c.VPs = append(c.VPs, c.Targets...)
}

// FaultProfile returns the fault profile the campaign's substrate injects:
// the simulator's profile when one is attached, else the resilient
// client's, else nil (a fault-free campaign). Consumers that model
// auxiliary-service failures (mapping, web) key off the same profile so
// one knob degrades the whole pipeline coherently.
func (c *Campaign) FaultProfile() *faults.Profile {
	if c.Sim != nil && c.Sim.Faults != nil {
		return c.Sim.Faults
	}
	if c.Client != nil {
		return c.Client.F
	}
	return nil
}

// AnchorVPIndices returns the matrix rows corresponding to anchors — the
// street level replication's vantage-point set (§4.2.1).
func (c *Campaign) AnchorVPIndices() []int {
	out := make([]int, len(c.SanitizedAnchors))
	for i := range out {
		out[i] = len(c.SanitizedProbes) + i
	}
	return out
}

// BuildMatrices runs the two bulk ping campaigns in parallel: every VP
// pings every target, and every VP pings each target's representatives.
// Jitter is keyed by (source, destination, salt), so the matrices are
// identical regardless of scheduling.
func (c *Campaign) BuildMatrices() {
	c.BuildTargetMatrix()
	c.BuildRepMatrix()
}

// BuildTargetMatrix fills and seals TargetRTT. It is Run's target phase
// with no journal or cancellation; a sealed matrix is not measured again.
func (c *Campaign) BuildTargetMatrix() { c.build(rowMatrixTargets) }

// BuildRepMatrix fills and seals RepRTT: for each (VP, target) it pings the
// target's three representatives and records the median of the responsive
// RTTs. Like BuildTargetMatrix, it measures a sealed matrix only once.
func (c *Campaign) BuildRepMatrix() { c.build(rowMatrixReps) }

// ping issues one campaign ping through the resilient client when one is
// attached, through the raw platform otherwise, and counts it into the
// row's record. The two paths are bit-identical when the client's fault
// profile is disabled. The context cancels between attempts (client path
// only — raw platform pings are a single synchronous simulator call).
func (c *Campaign) ping(ctx context.Context, src, dst *world.Host, salt uint64, rec *atlas.BatchStats) (float64, bool) {
	if c.Client != nil {
		out := c.Client.PingBatch(ctx, src, dst, salt, rec)
		return out.RTTMs, out.OK
	}
	rec.Pings++
	return c.Platform.Ping(src, dst, salt)
}

// measureRow fills row vp of a phase's matrix: one batch, one source. With
// reps nil it is the target phase (one ping per target); otherwise the
// representatives phase (the median of the responsive /24-representative
// RTTs per target).
func (c *Campaign) measureRow(ctx context.Context, m *cbg.Matrix, vp int, reps [][]*world.Host, rec *atlas.BatchStats) {
	src := c.VPs[vp]
	var rtts [3]float64
	for t, dst := range c.Targets {
		if src.ID == dst.ID {
			continue // a target is never its own vantage point
		}
		if reps == nil {
			if rtt, ok := c.ping(ctx, src, dst, saltTargetPing, rec); ok {
				m.RTT[vp][t] = float32(rtt)
			}
			continue
		}
		n := 0
		for r, rep := range reps[t] {
			if rtt, ok := c.ping(ctx, src, rep, saltRepPing+uint64(r), rec); ok {
				rtts[n] = rtt
				n++
			}
		}
		if n > 0 {
			m.RTT[vp][t] = float32(median3(rtts[:n]))
		}
	}
}

// repHosts resolves every target's /24 representatives to hosts, indexed
// by target.
func (c *Campaign) repHosts() [][]*world.Host {
	reps := make([][]*world.Host, len(c.Targets))
	for t, target := range c.Targets {
		ids := c.Hitlist.Reps(target.ID)
		reps[t] = make([]*world.Host, len(ids))
		for i, id := range ids {
			reps[t][i] = c.W.Host(id)
		}
	}
	return reps
}

func vpLocations(vps []*world.Host) []geo.Point {
	locs := make([]geo.Point, len(vps))
	for i, h := range vps {
		locs[i] = h.Reported
	}
	return locs
}

// median3 returns the median of up to three values (n in 1..3).
func median3(v []float64) float64 {
	switch len(v) {
	case 1:
		return v[0]
	case 2:
		return (v[0] + v[1]) / 2
	default:
		a, b, c := v[0], v[1], v[2]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b = c
		}
		if a > b {
			b = a
		}
		return b
	}
}

// ErrorKm returns the geolocation error of an estimate for target index t,
// measured against the target's true location.
func (c *Campaign) ErrorKm(t int, est geo.Point) float64 {
	return geo.Distance(c.Targets[t].Loc, est)
}

// TargetContinent returns the continent of target index t.
func (c *Campaign) TargetContinent(t int) world.Continent {
	return c.W.CityOf(c.Targets[t]).Continent
}
