// Package atlas models the RIPE-Atlas-like public measurement platform the
// replication runs on: probe/anchor inventories, ping and traceroute
// measurements, credit accounting, per-probe probing-rate budgets, and the
// API/scheduling latency that dominates the time to geolocate a target.
//
// The deployability results of the paper (§5.1.3, §5.2.5) are about these
// platform constraints, so they are modelled explicitly rather than assumed
// away: every measurement spends credits, probes have realistic
// packets-per-second budgets, and measurement rounds take minutes of
// simulated time because results must be polled from the API.
package atlas

import (
	"geoloc/internal/netsim"
	"geoloc/internal/rhash"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

// Credit costs per measurement, following the RIPE Atlas pricing shape.
const (
	// CreditsPerPingPacket is charged per ping packet (a default ping is 3
	// packets).
	CreditsPerPingPacket = 10
	// CreditsPerTraceroute is charged per traceroute.
	CreditsPerTraceroute = 60
)

// CostModel captures the simulated wall-clock cost of driving the platform
// through its public API.
type CostModel struct {
	// APISubmitSec is the latency of one measurement-creation API call.
	APISubmitSec float64
	// SchedulingMinSec/MaxSec bound how long the platform takes to schedule
	// a measurement batch and make results available ("it generally takes a
	// few minutes to get the results of a measurement", §5.2.5).
	SchedulingMinSec, SchedulingMaxSec float64
	// MappingQueriesPerSec is the observed reverse-geocoding rate limit
	// (~8 queries/second, §4.2.4).
	MappingQueriesPerSec float64
	// WebTestSec is the cost of one locally-hosted check (one DNS query and
	// two wgets, §5.2.5).
	WebTestSec float64
	// WebTestParallelism is how many checks run concurrently (the paper
	// used a 32-core machine).
	WebTestParallelism int
}

// DefaultCostModel returns the cost model matching the paper's setup.
func DefaultCostModel() CostModel {
	return CostModel{
		APISubmitSec:         2,
		SchedulingMinSec:     120,
		SchedulingMaxSec:     360,
		MappingQueriesPerSec: 8,
		WebTestSec:           0.95,
		WebTestParallelism:   32,
	}
}

// Stats is a snapshot of platform usage. Credits are derived from the
// counts, so a snapshot can never show a measurement without its charge.
type Stats struct {
	Pings       int64
	Traceroutes int64
	Credits     int64
}

// Platform is a measurement platform bound to one world and simulator.
// Measurement methods are safe for concurrent use.
type Platform struct {
	W    *world.World
	Sim  *netsim.Sim
	Cost CostModel

	// Reg is the platform's telemetry registry. It is per-platform and
	// never nil: the usage counters are the credit accounting, so they
	// count whether or not the campaign is metered.
	Reg *telemetry.Registry

	mPings       *telemetry.Counter
	mTraceroutes *telemetry.Counter
}

// New builds a platform over the world with the default cost model.
func New(w *world.World, sim *netsim.Sim) *Platform {
	p := &Platform{W: w, Sim: sim, Cost: DefaultCostModel(), Reg: telemetry.New()}
	p.mPings = p.Reg.Counter("atlas.pings")
	p.mTraceroutes = p.Reg.Counter("atlas.traceroutes")
	return p
}

// pingCost is the credit charge of one ping: PingPackets packets.
func (p *Platform) pingCost() int64 {
	return int64(netsim.PingPackets) * CreditsPerPingPacket
}

// Ping runs one ping measurement from src to dst. round distinguishes
// repeated measurements of the same pair; a fixed round reproduces the
// measurement, which keeps campaigns deterministic even when parallelized.
func (p *Platform) Ping(src, dst *world.Host, round uint64) (float64, bool) {
	p.mPings.Add(1)
	return p.Sim.Ping(src, dst, round)
}

// Traceroute runs one traceroute from src to dst.
func (p *Platform) Traceroute(src, dst *world.Host, round uint64) netsim.Trace {
	return p.TraceInto(new(netsim.TraceBuf), src, dst, round)
}

// TraceInto runs one traceroute from src to dst with its hops written into
// buf (see netsim.Sim.TraceInto); it is charged as Traceroute is.
func (p *Platform) TraceInto(buf *netsim.TraceBuf, src, dst *world.Host, round uint64) netsim.Trace {
	p.mTraceroutes.Add(1)
	return p.Sim.TraceInto(buf, src, dst, round)
}

// Stats returns the usage so far. Credits are pings × pingCost +
// traceroutes × CreditsPerTraceroute, computed from the counts read.
func (p *Platform) Stats() Stats {
	s := Stats{Pings: p.mPings.Value(), Traceroutes: p.mTraceroutes.Value()}
	s.Credits = s.Pings*p.pingCost() + s.Traceroutes*CreditsPerTraceroute
	return s
}

// RestoreStats re-adds a journaled row's platform usage after a checkpoint
// resume: its pings were issued (and charged) by a previous process, so
// the resumed process's counters must carry them for its totals to match
// an uninterrupted run.
func (p *Platform) RestoreStats(b *BatchStats) {
	p.mPings.Add(b.Pings)
}

// ProbePPS returns the probing budget of a host in packets per second:
// anchors sustain 200–400 pps, probes 4–12 pps (§5.1.3). The value is
// deterministic per host.
func (p *Platform) ProbePPS(h *world.Host) float64 {
	u := rhash.UnitFloat(p.W.Cfg.Seed, rhash.HashString("pps"), uint64(h.Addr))
	if h.Kind == world.Anchor {
		return 200 + 200*u
	}
	return 4 + 8*u
}

// RoundSeconds returns the simulated wall-clock duration of one measurement
// round issued through the API: submission latency plus the
// scheduling-and-result wait. salt varies the wait deterministically.
func (p *Platform) RoundSeconds(salt uint64) float64 {
	u := rhash.UnitFloat(p.W.Cfg.Seed, rhash.HashString("round"), salt)
	return p.Cost.APISubmitSec +
		p.Cost.SchedulingMinSec + (p.Cost.SchedulingMaxSec-p.Cost.SchedulingMinSec)*u
}

// CampaignSeconds estimates how long a probing campaign takes when every
// listed source must send the given number of packets within its
// packets-per-second budget: the campaign drains at the pace of its
// slowest source.
//
// An empty source list, a non-positive packet count, or a host reporting
// a non-positive packets-per-second budget all return 0 explicitly: there
// is no campaign to drain (or no budget to drain it with), and returning
// 0 beats returning +Inf or dividing by zero. ProbePPS never yields a
// non-positive budget today, but the guard keeps the contract local.
func (p *Platform) CampaignSeconds(srcIDs []int, packetsPerSrc int) float64 {
	if len(srcIDs) == 0 || packetsPerSrc <= 0 {
		return 0
	}
	worst := 0.0
	for _, id := range srcIDs {
		pps := p.ProbePPS(p.W.Host(id))
		if pps <= 0 {
			return 0
		}
		if t := float64(packetsPerSrc) / pps; t > worst {
			worst = t
		}
	}
	return worst
}

// MappingSeconds returns the simulated time to issue n reverse-geocoding
// queries at the observed rate limit.
func (p *Platform) MappingSeconds(n int) float64 {
	return float64(n) / p.Cost.MappingQueriesPerSec
}

// WebTestSeconds returns the simulated time to run n locally-hosted checks
// with the configured parallelism.
func (p *Platform) WebTestSeconds(n int) float64 {
	return float64(n) * p.Cost.WebTestSec / float64(p.Cost.WebTestParallelism)
}
