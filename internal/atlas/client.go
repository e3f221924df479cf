package atlas

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"geoloc/internal/faults"
	"geoloc/internal/rhash"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

// Client is the resilient measurement layer over a Platform: it retries
// failed measurements with exponential backoff and deterministic jitter,
// times out measurements that exceed a ceiling, and quarantines flapping
// probes behind a per-probe circuit breaker.
//
// All time is accounted on simulated per-source clocks: each source pays
// for its own pacing (packets ÷ its packets-per-second budget), backoff
// waits, rate-limit cooldowns and scheduling stalls, and the campaign
// duration is the slowest source's clock — the same drain-at-the-slowest
// model as Platform.CampaignSeconds, now with failures included. Because
// each source's clock advances only from its own deterministic sequence
// of operations, results and timing are bit-identical regardless of
// GOMAXPROCS, provided each source issues its measurements in a
// deterministic order (one goroutine per source, as core's campaigns do).
//
// With a disabled fault profile the client is transparent: one attempt
// per measurement with the caller's salt, so results match the raw
// platform bit-for-bit.
type Client struct {
	P *Platform
	// F is the fault profile driving API-level failures. Network-level
	// faults (packet loss, truncation) live in the simulator; the client
	// only observes their symptoms.
	F *faults.Profile

	// srcs holds every source's resilience state by host ID: sources are
	// world hosts, whose IDs index the world's hosts.
	srcs []srcState

	// backoffSec lives in the platform's telemetry registry; it observes
	// and is never read back.
	backoffSec *telemetry.Histogram
}

// The resilience machinery's tuning. A first retry waits backoffBaseSec
// and each further one doubles it, capped at backoffMaxSec; the wait is
// jittered ±50% deterministically per (src, dst, salt, attempt), and a 429
// adds rateLimitCooldownSec. A measurement whose RTT exceeds timeoutMs
// fails; the ceiling is far above any Earth RTT, so it only fires on
// pathological paths. breakerThreshold consecutive probe-side failures
// (source offline, timeouts) quarantine a source for quarantineSec of its
// clock, and each request skipped meanwhile advances that clock by
// quarantineTickSec so the window expires.
const (
	maxAttempts          = 3 // tries per measurement, the first included
	backoffBaseSec       = 2.0
	backoffMaxSec        = 60.0
	rateLimitCooldownSec = 30.0
	timeoutMs            = 3000.0
	breakerThreshold     = 5
	quarantineSec        = 900.0
	quarantineTickSec    = 1.0
)

// Tuning names the client's constants. A campaign's ConfigHash covers it,
// so a journal written under other constants refuses to resume.
func Tuning() string {
	return fmt.Sprintf("attempts=%d backoff=%g..%gs cooldown=%gs timeout=%gms breaker=%d quarantine=%gs tick=%gs",
		maxAttempts, backoffBaseSec, backoffMaxSec, rateLimitCooldownSec,
		timeoutMs, breakerThreshold, quarantineSec, quarantineTickSec)
}

// Measurement failure reasons.
var (
	// ErrUnresponsive: every attempt ran but nothing answered.
	ErrUnresponsive = errors.New("atlas: no response after all attempts")
	// ErrOffline: a flapping endpoint was inside an offline window.
	ErrOffline = errors.New("atlas: endpoint offline")
	// ErrSubmitFailed: the measurement-creation API call failed.
	ErrSubmitFailed = errors.New("atlas: measurement submission failed")
	// ErrRateLimited: the API answered 429 on every attempt.
	ErrRateLimited = errors.New("atlas: rate limited")
	// ErrTimeout: the measured RTT exceeded the client timeout.
	ErrTimeout = errors.New("atlas: measurement timed out")
	// ErrQuarantined: the source is quarantined by its circuit breaker.
	ErrQuarantined = errors.New("atlas: source quarantined")
	// ErrCanceled: the context was canceled between attempts; the
	// measurement was abandoned without spending further credits.
	ErrCanceled = errors.New("atlas: measurement canceled")
)

// Tally is the measurement layer's one set of counts. A measurement counts
// into its own Tally; that tally is added to the client's totals and to the
// caller's row record, and a journaled row's tally is added back on resume
// by the same Tally.add.
type Tally struct {
	// Pings are the platform pings the measurements issued; the client's
	// credits are derived from them.
	Pings int64
	// Measurements counts requested measurements (before retries);
	// Succeeded those that returned a usable result.
	Measurements, Succeeded int64
	// Retries counts extra attempts; Failures measurements that exhausted
	// every attempt.
	Retries, Failures int64
	// Failure-mode breakdown.
	SubmitErrors, RateLimited, Stalls, Timeouts, Offline int64
	// Quarantines counts circuit-breaker trips; SkippedQuarantined counts
	// measurements a quarantined source refused locally.
	Quarantines, SkippedQuarantined int64
	// Canceled counts measurements abandoned by context cancellation.
	Canceled int64
}

// tallyFields is the number of Tally fields.
const tallyFields = 13

// fields lists every Tally field in the journal's row order. Append new
// fields at the end only.
func (t *Tally) fields() [tallyFields]*int64 {
	return [...]*int64{
		&t.Pings, &t.Measurements, &t.Succeeded, &t.Retries, &t.Failures,
		&t.SubmitErrors, &t.RateLimited, &t.Stalls, &t.Timeouts, &t.Offline,
		&t.Quarantines, &t.SkippedQuarantined, &t.Canceled,
	}
}

// add adds every count of d to t.
func (t *Tally) add(d *Tally) {
	df := d.fields()
	for i, f := range t.fields() {
		*f += *df[i]
	}
}

// BatchStats is the record of one journaled batch (one matrix row): the
// Tally of its measurements and the final resilience state of the batch's
// source. The checkpoint journal persists one BatchStats per batch so a
// resumed campaign can replay the accounting without re-issuing the
// measurements; restoring every journaled batch plus live-measuring the
// rest reproduces an uninterrupted run's counters exactly.
//
// All batch measurements of one record must come from a single goroutine
// (one row = one worker, as core's campaigns are structured).
type BatchStats struct {
	Tally
	// Final source state after the batch: the simulated clock, the circuit
	// breaker's consecutive-failure count, and the quarantine deadline.
	// Absolute values, not deltas — a later batch of the same source
	// supersedes an earlier one.
	SrcClockUSec, SrcConsecFails, SrcQuarUntilUSec int64
}

// fields lists every BatchStats field in the journal's row order: the
// tally, then the source's end state. An array, not a slice, so a row
// record does not escape to the heap.
func (b *BatchStats) fields() (f [tallyFields + 3]*int64) {
	for i, p := range b.Tally.fields() {
		f[i] = p
	}
	f[tallyFields], f[tallyFields+1], f[tallyFields+2] = &b.SrcClockUSec, &b.SrcConsecFails, &b.SrcQuarUntilUSec
	return f
}

// NumFields is the BatchStats serialization width.
func (b *BatchStats) NumFields() int { return len(b.fields()) }

// Encode appends the fields in serialization order.
func (b *BatchStats) Encode(dst []int64) []int64 {
	for _, f := range b.fields() {
		dst = append(dst, *f)
	}
	return dst
}

// DecodeFields fills the stats from values in serialization order. vals
// must hold exactly NumFields values: a row of another width was written
// under another tally layout, and its counts would land in the wrong
// fields.
func (b *BatchStats) DecodeFields(vals []int64) {
	for i, f := range b.fields() {
		*f = vals[i]
	}
}

// end folds one measurement's tally into the row record and stamps the
// source's state after it; callers hold st.mu. A nil record keeps nothing.
func (b *BatchStats) end(t *Tally, st *srcState) {
	if b == nil {
		return
	}
	b.Tally.add(t)
	b.SrcClockUSec = st.clockUSec
	b.SrcConsecFails = int64(st.consecFails)
	b.SrcQuarUntilUSec = st.quarUntilUSc
}

// srcState is a source's private resilience state. Its clock is advanced
// only by that source's own operations, keeping it deterministic under
// parallel campaigns. total is the source's share of the client's totals.
type srcState struct {
	mu           sync.Mutex
	clockUSec    int64
	consecFails  int
	quarUntilUSc int64
	total        Tally
}

// kRetrySalt namespaces retry measurement salts away from first attempts.
var kRetrySalt = rhash.HashString("atlas/retry")

// NewClient wraps a platform with the resilience layer. A nil profile is
// treated as faults.None().
func NewClient(p *Platform, prof *faults.Profile) *Client {
	if prof == nil {
		prof = faults.None()
	}
	return &Client{
		P:    p,
		F:    prof,
		srcs: make([]srcState, len(p.W.Hosts)),
		backoffSec: p.Reg.Histogram("atlas.client.backoff_sec",
			[]float64{1, 2, 5, 10, 30, 60, 120}),
	}
}

// PingOutcome is the result of one resilient ping.
type PingOutcome struct {
	RTTMs    float64
	OK       bool
	Attempts int
	// Err explains the failure when OK is false; nil on success.
	Err error
}

func (c *Client) state(srcID int) *srcState { return &c.srcs[srcID] }

// advance moves a source's clock forward; callers hold st.mu.
func (st *srcState) advance(sec float64) {
	st.clockUSec += int64(sec * 1e6)
}

func (st *srcState) nowSec() float64 { return float64(st.clockUSec) / 1e6 }

// noteFailure records a probe-side failure against the circuit breaker;
// callers hold st.mu.
func (c *Client) noteFailure(st *srcState, t *Tally) {
	st.consecFails++
	if st.consecFails >= breakerThreshold {
		st.quarUntilUSc = st.clockUSec + int64(quarantineSec*1e6)
		st.consecFails = 0
		t.Quarantines++
	}
}

// backoff waits out retry attempt `attempt` (1-based) on the source
// clock, with deterministic ±50% jitter; callers hold st.mu.
func (c *Client) backoff(st *srcState, src, dst *world.Host, salt uint64, attempt int, rateLimited bool) {
	d := math.Min(backoffBaseSec*math.Pow(2, float64(attempt-1)), backoffMaxSec)
	u := rhash.UnitFloat(c.P.W.Cfg.Seed, kRetrySalt,
		uint64(src.Addr), uint64(dst.Addr), salt, uint64(attempt))
	d *= 0.5 + u
	if rateLimited {
		d += rateLimitCooldownSec
	}
	c.backoffSec.Observe(d)
	st.advance(d)
}

// attemptSalt derives the measurement salt of an attempt: the caller's
// salt verbatim for the first try (bit-compatible with the raw platform),
// a namespaced re-hash for retries so each retry is a fresh measurement.
func attemptSalt(salt uint64, attempt int) uint64 {
	if attempt == 0 {
		return salt
	}
	return rhash.Hash(salt, kRetrySalt, uint64(attempt))
}

// attempts collapses to a single attempt when no faults are injected,
// which keeps the client transparent (results bit-identical to the raw
// platform) under the none profile.
func (c *Client) attempts() int {
	if !c.F.Enabled() {
		return 1
	}
	return maxAttempts
}

// Ping runs one resilient ping measurement from src to dst.
func (c *Client) Ping(src, dst *world.Host, salt uint64) PingOutcome {
	return c.PingBatch(context.Background(), src, dst, salt, nil)
}

// PingBatch is Ping with cancellation and batch accounting: the context is
// checked between attempts (retries, backoff waits and circuit-breaker
// probes abandon the measurement with ErrCanceled once it is canceled).
// The measurement counts into one Tally, which is added once to the
// client's totals and, when rec is non-nil, to rec together with the
// source's final resilience state for checkpoint journaling.
func (c *Client) PingBatch(ctx context.Context, src, dst *world.Host, salt uint64, rec *BatchStats) PingOutcome {
	var t Tally
	st := c.state(src.ID)
	st.mu.Lock()
	defer st.mu.Unlock()
	out := c.ping(ctx, st, src, dst, salt, &t)
	st.total.add(&t)
	rec.end(&t, st)
	return out
}

// ping runs the attempts of one measurement, counting into t; callers
// hold st.mu.
func (c *Client) ping(ctx context.Context, st *srcState, src, dst *world.Host, salt uint64, t *Tally) PingOutcome {
	t.Measurements++
	if st.clockUSec < st.quarUntilUSc {
		t.SkippedQuarantined++
		st.advance(quarantineTickSec)
		return PingOutcome{Err: ErrQuarantined}
	}
	pacing := float64(c.P.Sim.Cfg.PingPackets) / c.P.ProbePPS(src)

	seed := c.P.W.Cfg.Seed
	srcA, dstA := uint64(src.Addr), uint64(dst.Addr)
	var lastErr error
	attempts := 0
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if ctx.Err() != nil {
			t.Canceled++
			return PingOutcome{Attempts: attempts, Err: ErrCanceled}
		}
		if attempt > 0 {
			t.Retries++
			c.backoff(st, src, dst, salt, attempt, lastErr == ErrRateLimited)
		}
		attempts++

		switch c.F.Submit(seed, srcA, dstA, salt, attempt) {
		case faults.SubmitError:
			t.SubmitErrors++
			lastErr = ErrSubmitFailed
			continue
		case faults.SubmitRateLimited:
			t.RateLimited++
			lastErr = ErrRateLimited
			continue
		}
		if stall := c.F.StallSec(seed, srcA, dstA, salt, attempt); stall > 0 {
			t.Stalls++
			st.advance(stall)
		}
		if c.F.HostDown(seed, srcA, st.nowSec()) {
			t.Offline++
			lastErr = ErrOffline
			c.noteFailure(st, t)
			continue
		}
		if c.F.HostDown(seed, dstA, st.nowSec()) {
			t.Offline++
			lastErr = ErrOffline
			continue
		}

		st.advance(pacing)
		rtt, ok := c.P.Ping(src, dst, attemptSalt(salt, attempt))
		t.Pings++
		if !ok {
			lastErr = ErrUnresponsive
			continue
		}
		if rtt > timeoutMs {
			t.Timeouts++
			lastErr = ErrTimeout
			c.noteFailure(st, t)
			continue
		}
		st.consecFails = 0
		t.Succeeded++
		return PingOutcome{RTTMs: rtt, OK: true, Attempts: attempts}
	}
	t.Failures++
	return PingOutcome{Attempts: attempts, Err: lastErr}
}

// RestoreBatch replays one journaled batch into the client after a
// resume: its tally is added to the client's totals by the same Tally.add
// a live measurement uses, and the batch source's state (simulated clock,
// breaker count, quarantine deadline) is fast-forwarded to its journaled
// end state. Combined with live measurement of the remaining batches this
// reproduces an uninterrupted run's ClientStats exactly.
func (c *Client) RestoreBatch(srcID int, b *BatchStats) {
	st := c.state(srcID)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.total.add(&b.Tally)
	st.clockUSec = b.SrcClockUSec
	st.consecFails = int(b.SrcConsecFails)
	st.quarUntilUSc = b.SrcQuarUntilUSec
}

// ClientStats is a snapshot of the client's totals.
type ClientStats struct {
	Tally
	// CreditsSpent is the credits this client charged to the platform:
	// its pings at the platform's per-ping cost.
	CreditsSpent int64
	// CampaignSec is the slowest source clock: the simulated wall-clock
	// duration of the campaign so far, retries and backoff included.
	CampaignSec float64
}

// Stats sums the client's totals over its sources. It is exact only when
// no measurement is in flight.
func (c *Client) Stats() ClientStats {
	var s ClientStats
	for i := range c.srcs {
		st := &c.srcs[i]
		st.mu.Lock()
		s.Tally.add(&st.total)
		if sec := st.nowSec(); sec > s.CampaignSec {
			s.CampaignSec = sec
		}
		st.mu.Unlock()
	}
	s.CreditsSpent = s.Pings * c.P.pingCost()
	return s
}
