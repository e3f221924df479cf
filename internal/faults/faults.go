// Package faults is the deterministic fault-injection layer of the
// simulated measurement substrate. The paper's pipeline runs on RIPE
// Atlas, a platform defined by its failure modes — probe churn, lost ping
// packets, truncated traceroutes, API errors, rate limits and scheduling
// stalls (§5.1.3, §5.2.5) — and a reproduction that never sees partial
// data exercises none of the code that must survive it.
//
// A Profile bundles the failure rates of one platform condition. Every
// draw is a pure function of the world seed and a stable label path
// (rhash-keyed), never of shared mutable state, so fault decisions are
// reproducible bit-for-bit and independent of goroutine scheduling: the
// same (seed, src, dst, salt) always loses the same packets, truncates
// the same traceroutes and fails the same API submissions, no matter how
// the campaign is parallelized.
//
// The zero Profile (and a nil *Profile) injects nothing; every injection
// point short-circuits on Enabled(), so the fault layer is zero-cost when
// disabled.
package faults

import (
	"fmt"
	"math"

	"geoloc/internal/rhash"
)

// Profile is a set of failure rates describing one platform condition.
// All probabilities are in [0, 1]; zero disables that failure mode.
type Profile struct {
	// Name identifies the profile in reports.
	Name string

	// PacketLoss is the baseline per-packet loss probability applied to
	// every ping packet on every path.
	PacketLoss float64
	// PathLossMax adds per-path heterogeneity: each (src, dst) pair draws
	// a persistent extra loss rate uniformly in [0, PathLossMax]. Lossy
	// paths stay lossy, which is what makes retries on the same path less
	// effective than re-selecting a different vantage point.
	PathLossMax float64

	// FlapFrac is the fraction of hosts that flap between online and
	// offline. A flapping host is offline for FlapDownFrac of every flap
	// period; period length and phase are drawn per host around
	// FlapPeriodSec.
	FlapFrac      float64
	FlapPeriodSec float64
	FlapDownFrac  float64

	// TraceTruncProb is the probability a traceroute loses its tail: the
	// path is cut at a uniform hop and the destination never answers.
	TraceTruncProb float64
	// HopLossProb is extra per-hop unresponsiveness on top of the
	// simulator's baseline (routers deprioritizing ICMP under load).
	HopLossProb float64

	// SubmitErrProb is the probability one measurement-creation API call
	// fails outright (5xx, connection reset).
	SubmitErrProb float64
	// RateLimitProb is the probability an API call is answered with a
	// 429; the client must back off before retrying.
	RateLimitProb float64
	// StallProb and StallMaxSec model scheduling stalls: with StallProb
	// the platform takes up to StallMaxSec extra (uniform) beyond the
	// normal scheduling window to return results.
	StallProb   float64
	StallMaxSec float64

	// LookupFailProb is the probability one mapping-service query (a
	// reverse geocode or a POI/amenity query) fails outright — timeout,
	// 5xx, or an over-eager rate limiter. The street-level pipeline
	// degrades to the landmarks it already has instead of erroring.
	LookupFailProb float64
	// StaleLandmarkProb is the probability a landmark website's advertised
	// location is stale or mis-geolocated ("Trust, But Verify": the
	// auxiliary data sources are themselves unreliable). A stale landmark
	// drifts up to StaleDriftMaxKm from its true position, silently
	// poisoning any estimate that maps the target onto it.
	StaleLandmarkProb float64
	StaleDriftMaxKm   float64

	// ServeFailProb is the probability one dataset-serving lookup fails
	// outright (backend hiccup, shed load); geoserve answers 503 and the
	// client is expected to retry. ServeStallProb/ServeStallMaxMs inject
	// extra lookup latency (up to the max, uniform) into served queries.
	// Both are keyed by the queried address, so a chaos run fails and
	// slows the same IPs deterministically.
	ServeFailProb   float64
	ServeStallProb  float64
	ServeStallMaxMs float64
}

// None returns the empty profile: no injected faults, bit-identical
// behaviour to a simulator without a fault layer.
func None() *Profile { return &Profile{Name: "none"} }

// Realistic approximates day-to-day RIPE Atlas operation: low packet
// loss with lossy-path outliers, a few percent of probes flapping, the
// occasional truncated traceroute, and rare API hiccups.
func Realistic() *Profile {
	return &Profile{
		Name:           "realistic",
		PacketLoss:     0.01,
		PathLossMax:    0.04,
		FlapFrac:       0.03,
		FlapPeriodSec:  1800,
		FlapDownFrac:   0.25,
		TraceTruncProb: 0.05,
		HopLossProb:    0.02,
		SubmitErrProb:  0.02,
		RateLimitProb:  0.02,
		StallProb:      0.05,
		StallMaxSec:    300,

		LookupFailProb:    0.03,
		StaleLandmarkProb: 0.03,
		StaleDriftMaxKm:   8,

		ServeFailProb:   0.002,
		ServeStallProb:  0.01,
		ServeStallMaxMs: 50,
	}
}

// Degraded models a platform under stress: loss and churn high enough
// that retries are routinely needed and some vantage points are lost.
func Degraded() *Profile {
	return &Profile{
		Name:           "degraded",
		PacketLoss:     0.05,
		PathLossMax:    0.15,
		FlapFrac:       0.10,
		FlapPeriodSec:  900,
		FlapDownFrac:   0.40,
		TraceTruncProb: 0.15,
		HopLossProb:    0.08,
		SubmitErrProb:  0.08,
		RateLimitProb:  0.10,
		StallProb:      0.15,
		StallMaxSec:    600,

		LookupFailProb:    0.10,
		StaleLandmarkProb: 0.08,
		StaleDriftMaxKm:   25,

		ServeFailProb:   0.02,
		ServeStallProb:  0.10,
		ServeStallMaxMs: 250,
	}
}

// Hostile is the stress ceiling: heavy loss everywhere, a quarter of the
// hosts flapping, and an API that fails more often than it succeeds is
// rate-limited. Pipelines must complete (with degraded coverage), not
// produce good answers.
func Hostile() *Profile {
	return &Profile{
		Name:           "hostile",
		PacketLoss:     0.15,
		PathLossMax:    0.35,
		FlapFrac:       0.25,
		FlapPeriodSec:  600,
		FlapDownFrac:   0.50,
		TraceTruncProb: 0.35,
		HopLossProb:    0.20,
		SubmitErrProb:  0.20,
		RateLimitProb:  0.20,
		StallProb:      0.30,
		StallMaxSec:    900,

		LookupFailProb:    0.25,
		StaleLandmarkProb: 0.20,
		StaleDriftMaxKm:   75,

		ServeFailProb:   0.10,
		ServeStallProb:  0.30,
		ServeStallMaxMs: 1000,
	}
}

// ParseProfile maps a profile name — none, realistic, degraded or
// hostile — to its Profile. "none" is nil: no fault layer at all.
func ParseProfile(name string) (*Profile, error) {
	switch name {
	case "none":
		return nil, nil
	case "realistic":
		return Realistic(), nil
	case "degraded":
		return Degraded(), nil
	case "hostile":
		return Hostile(), nil
	}
	return nil, fmt.Errorf("unknown fault profile %q (want none, realistic, degraded or hostile)", name)
}

// Scale returns a copy of the profile with every probability multiplied
// by k (capped at 1) and the stall magnitude scaled likewise. Scale(0)
// is equivalent to None; the chaos experiment sweeps k to produce a
// degradation curve.
func (p *Profile) Scale(k float64) *Profile {
	cap1 := func(v float64) float64 { return math.Min(1, math.Max(0, v*k)) }
	s := *p
	s.PacketLoss = cap1(p.PacketLoss)
	s.PathLossMax = cap1(p.PathLossMax)
	s.FlapFrac = cap1(p.FlapFrac)
	s.FlapDownFrac = cap1(p.FlapDownFrac)
	s.TraceTruncProb = cap1(p.TraceTruncProb)
	s.HopLossProb = cap1(p.HopLossProb)
	s.SubmitErrProb = cap1(p.SubmitErrProb)
	s.RateLimitProb = cap1(p.RateLimitProb)
	s.StallProb = cap1(p.StallProb)
	s.StallMaxSec = math.Max(0, p.StallMaxSec*k)
	s.LookupFailProb = cap1(p.LookupFailProb)
	s.StaleLandmarkProb = cap1(p.StaleLandmarkProb)
	s.StaleDriftMaxKm = math.Max(0, p.StaleDriftMaxKm*k)
	s.ServeFailProb = cap1(p.ServeFailProb)
	s.ServeStallProb = cap1(p.ServeStallProb)
	s.ServeStallMaxMs = math.Max(0, p.ServeStallMaxMs*k)
	s.Name = fmt.Sprintf("%s*%g", p.Name, k)
	return &s
}

// Enabled reports whether the profile injects any fault at all. A nil or
// zero profile is disabled, letting every injection point short-circuit.
func (p *Profile) Enabled() bool {
	if p == nil {
		return false
	}
	return p.PacketLoss > 0 || p.PathLossMax > 0 || p.FlapFrac > 0 ||
		p.TraceTruncProb > 0 || p.HopLossProb > 0 ||
		p.SubmitErrProb > 0 || p.RateLimitProb > 0 || p.StallProb > 0 ||
		p.LookupFailProb > 0 || p.StaleLandmarkProb > 0 ||
		p.ServeFailProb > 0 || p.ServeStallProb > 0
}

// Label namespaces for fault draws. They are disjoint from every label
// the simulator uses, so enabling faults never perturbs the base draws:
// a lost packet is a packet the fault layer dropped, not a different
// packet.
var (
	kPathLoss   = rhash.HashString("faults/pathloss")
	kPktLoss    = rhash.HashString("faults/pkt")
	kFlapSel    = rhash.HashString("faults/flapsel")
	kFlapPer    = rhash.HashString("faults/flapperiod")
	kFlapPhase  = rhash.HashString("faults/flapphase")
	kTrunc      = rhash.HashString("faults/trunc")
	kTruncHop   = rhash.HashString("faults/trunchop")
	kHopLoss    = rhash.HashString("faults/hoploss")
	kSubmit     = rhash.HashString("faults/submit")
	kStall      = rhash.HashString("faults/stall")
	kLookup     = rhash.HashString("faults/maplookup")
	kStaleSel   = rhash.HashString("faults/stalesel")
	kStaleBrg   = rhash.HashString("faults/stalebearing")
	kStaleDist  = rhash.HashString("faults/staledist")
	kServeFail  = rhash.HashString("faults/servefail")
	kServeStall = rhash.HashString("faults/servestall")
)

// PathLossRate returns the persistent per-path loss probability of the
// (src, dst) pair: baseline plus the pair's heterogeneity draw.
func (p *Profile) PathLossRate(seed, src, dst uint64) float64 {
	if !p.Enabled() {
		return 0
	}
	loss := p.PacketLoss
	if p.PathLossMax > 0 {
		loss += p.PathLossMax * rhash.UnitFloat(seed, kPathLoss, src, dst)
	}
	return loss
}

// PacketLost reports whether ping packet `packet` of measurement (src,
// dst, salt) is lost by the fault layer, on a path whose persistent loss
// rate is loss — PathLossRate(seed, src, dst), drawn once per measurement.
func (p *Profile) PacketLost(loss float64, seed, src, dst, salt uint64, packet int) bool {
	if loss <= 0 {
		return false
	}
	return rhash.UnitFloat(seed, kPktLoss, src, dst, salt, uint64(packet)) < loss
}

// HostDown reports whether the host is inside an offline window of its
// flap cycle at the given simulated time. Whether a host flaps at all,
// its period and its phase are persistent per-host draws, so the offline
// windows are stable features of the run rather than coin flips — a
// client that retries immediately keeps hitting the same window, one
// that backs off long enough sees the probe come back.
func (p *Profile) HostDown(seed, addr uint64, atSec float64) bool {
	if p == nil || p.FlapFrac <= 0 || p.FlapDownFrac <= 0 {
		return false
	}
	if rhash.UnitFloat(seed, kFlapSel, addr) >= p.FlapFrac {
		return false
	}
	period := p.FlapPeriodSec
	if period <= 0 {
		period = 1800
	}
	// Period in [0.5, 1.5]× the profile's nominal, phase uniform in it.
	period *= 0.5 + rhash.UnitFloat(seed, kFlapPer, addr)
	phase := period * rhash.UnitFloat(seed, kFlapPhase, addr)
	pos := math.Mod(atSec+phase, period)
	if pos < 0 {
		pos += period
	}
	return pos < period*p.FlapDownFrac
}

// TruncateHop returns the hop index at which traceroute (src, dst, salt)
// loses its tail, or -1 when the traceroute completes. A truncated
// traceroute keeps hops [0, hop) and never hears from the destination.
func (p *Profile) TruncateHop(seed, src, dst, salt uint64, numHops int) int {
	if p == nil || p.TraceTruncProb <= 0 || numHops == 0 {
		return -1
	}
	if rhash.UnitFloat(seed, kTrunc, src, dst, salt) >= p.TraceTruncProb {
		return -1
	}
	return int(rhash.UnitFloat(seed, kTruncHop, src, dst, salt) * float64(numHops))
}

// HopLost reports whether hop `hop` of traceroute (src, dst, salt) is
// additionally silenced by the fault layer.
func (p *Profile) HopLost(seed, src, dst, salt uint64, hop int) bool {
	if p == nil || p.HopLossProb <= 0 {
		return false
	}
	return rhash.UnitFloat(seed, kHopLoss, src, dst, salt, uint64(hop)) < p.HopLossProb
}

// SubmitOutcome is the result of one measurement-creation API call.
type SubmitOutcome int

const (
	// SubmitOK: the platform accepted the measurement.
	SubmitOK SubmitOutcome = iota
	// SubmitError: the call failed (5xx / connection reset); retryable.
	SubmitError
	// SubmitRateLimited: 429 — the client must back off before retrying.
	SubmitRateLimited
)

// Submit draws the outcome of API submission attempt `attempt` of
// measurement (src, dst, salt).
func (p *Profile) Submit(seed, src, dst, salt uint64, attempt int) SubmitOutcome {
	if p == nil || (p.SubmitErrProb <= 0 && p.RateLimitProb <= 0) {
		return SubmitOK
	}
	u := rhash.UnitFloat(seed, kSubmit, src, dst, salt, uint64(attempt))
	switch {
	case u < p.SubmitErrProb:
		return SubmitError
	case u < p.SubmitErrProb+p.RateLimitProb:
		return SubmitRateLimited
	default:
		return SubmitOK
	}
}

// LookupFailed reports whether the mapping-service query identified by a
// query-kind discriminator and two words of the query's own key material
// fails. Like every fault draw it is persistent: re-issuing the identical
// query fails identically, so a pipeline cannot "retry through" a failed
// lookup — it must degrade, as with a cached upstream error.
func (p *Profile) LookupFailed(seed, kind, a, b uint64) bool {
	if p == nil || p.LookupFailProb <= 0 {
		return false
	}
	return rhash.UnitFloat(seed, kLookup, kind, a, b) < p.LookupFailProb
}

// StaleDrift returns the displacement of a stale landmark's advertised
// coordinates: a deterministic per-site bearing and distance (up to
// StaleDriftMaxKm), or stale=false when the site's data is current.
func (p *Profile) StaleDrift(seed, key uint64) (bearingDeg, distKm float64, stale bool) {
	if p == nil || p.StaleLandmarkProb <= 0 || p.StaleDriftMaxKm <= 0 {
		return 0, 0, false
	}
	if rhash.UnitFloat(seed, kStaleSel, key) >= p.StaleLandmarkProb {
		return 0, 0, false
	}
	return 360 * rhash.UnitFloat(seed, kStaleBrg, key),
		p.StaleDriftMaxKm * rhash.UnitFloat(seed, kStaleDist, key),
		true
}

// StallSec returns the extra scheduling delay (beyond the platform's
// normal window) of attempt `attempt`, 0 when the scheduler is on time.
func (p *Profile) StallSec(seed, src, dst, salt uint64, attempt int) float64 {
	if p == nil || p.StallProb <= 0 || p.StallMaxSec <= 0 {
		return 0
	}
	u := rhash.UnitFloat(seed, kStall, src, dst, salt, uint64(attempt))
	if u >= p.StallProb {
		return 0
	}
	// Reuse the sub-threshold draw as the stall magnitude: u/StallProb is
	// uniform in [0, 1) conditioned on stalling.
	return p.StallMaxSec * (u / p.StallProb)
}

// ServeFailed reports whether the dataset-serving lookup for addr fails.
// Persistent per address: a chaos run fails the same IPs on every retry,
// so clients exercise their fallback path, not a lucky second attempt.
func (p *Profile) ServeFailed(seed, addr uint64) bool {
	if p == nil || p.ServeFailProb <= 0 {
		return false
	}
	return rhash.UnitFloat(seed, kServeFail, addr) < p.ServeFailProb
}

// ServeStallMs returns the extra latency injected into the lookup for
// addr (milliseconds), 0 when the query is served at full speed.
func (p *Profile) ServeStallMs(seed, addr uint64) float64 {
	if p == nil || p.ServeStallProb <= 0 || p.ServeStallMaxMs <= 0 {
		return 0
	}
	u := rhash.UnitFloat(seed, kServeStall, addr)
	if u >= p.ServeStallProb {
		return 0
	}
	// Reuse the sub-threshold draw as the magnitude, as StallSec does.
	return p.ServeStallMaxMs * (u / p.ServeStallProb)
}
