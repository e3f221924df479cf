package router

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"geoloc/internal/faults"
	"geoloc/internal/ipaddr"
	"geoloc/internal/obs"
	"geoloc/internal/rhash"
	"geoloc/internal/serve"
	"geoloc/internal/telemetry"
)

// Defaults for Config fields left zero. Retry backoff starts small: a
// failover target is a different process, so there is no reason to make
// the client pay a long penance before trying it.
const (
	DefaultReplication     = 2
	DefaultUpstreamTimeout = 2 * time.Second
	DefaultRequestTimeout  = 5 * time.Second
	DefaultRetryBase       = 2 * time.Millisecond
	DefaultRetryMax        = 50 * time.Millisecond
	DefaultHedgeMin        = 5 * time.Millisecond
	DefaultHedgeMax        = 200 * time.Millisecond
	DefaultProbeInterval   = 200 * time.Millisecond
	DefaultProbeTimeout    = time.Second
	DefaultDownAfter       = 2
	DefaultUpAfter         = 3
)

// maxUpstreamBody bounds how much of a replica response the router will
// buffer: the /batch response ceiling plus envelope headroom.
const maxUpstreamBody = 1<<22 + 4096

// Deterministic jitter namespace (see internal/rhash).
var kRetryBackoff = rhash.HashString("router/retry-backoff")

// FleetController lets the router's admin plane (and geoserve's fault
// loop) manipulate replicas at the process-lifecycle level. LocalFleet
// implements it for the single-binary multi-replica mode; a multi-host
// deployment would implement it against its supervisor.
type FleetController interface {
	// StopReplica kills the replica abruptly (connections reset, no
	// drain) — the chaos primitive, not a graceful shutdown.
	StopReplica(i int) error
	// StartReplica restarts a stopped replica on its original address.
	StartReplica(i int) error
	// StallReplica freezes (or unfreezes) the replica's handler: requests
	// are accepted and then hang until their context expires.
	StallReplica(i int, stalled bool) error
}

// Config parameterizes a Router.
type Config struct {
	// ReplicaURLs are the base URLs ("http://host:port") of the fleet,
	// in partition order: replica i owns Partition(n)[i].
	ReplicaURLs []string

	// Replication is how many consecutive ring positions may answer for
	// a range: the range's primary plus Replication-1 designated
	// fallbacks. 1 disables failover entirely — a dead primary means its
	// range answers 503 until the probes re-admit it.
	Replication int

	// MaxBatch caps /batch input size (pre-scatter, whole request).
	MaxBatch int

	// UpstreamTimeout bounds one attempt against one replica;
	// RequestTimeout bounds the whole routed request across retries and
	// hedges.
	UpstreamTimeout time.Duration
	RequestTimeout  time.Duration

	// RetryBase/RetryMax shape the jittered exponential backoff between
	// failover attempts.
	RetryBase time.Duration
	RetryMax  time.Duration

	// Hedge enables tail-latency hedging on /lookup: when the primary
	// has not answered within its p99 (clamped to [HedgeMin, HedgeMax]),
	// the first fallback gets a copy of the request and the first
	// response wins; the loser is canceled.
	Hedge    bool
	HedgeMin time.Duration
	HedgeMax time.Duration

	// Probing: every ProbeInterval each replica's /readyz is checked
	// with a ProbeTimeout budget. DownAfter consecutive failures mark a
	// replica down; UpAfter consecutive probe successes re-admit it.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	DownAfter     int
	UpAfter       int

	// RetryAfter is the base of the jittered Retry-After hint on 503s
	// for uncovered ranges (serve.DefaultRetryAfter when zero).
	RetryAfter time.Duration

	// Seed keys all deterministic jitter (backoff, Retry-After) and the
	// probe-stall fault draws.
	Seed uint64

	// Prof optionally injects deterministic probe-path faults.
	Prof *faults.Profile

	// AdminToken guards /admin/replica; empty disables the endpoint.
	AdminToken string

	// Controller backs /admin/replica (nil → 501).
	Controller FleetController

	// MetricsLabel tags every metric on /metrics with instance="...".
	MetricsLabel string
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = DefaultReplication
	}
	if c.Replication > len(c.ReplicaURLs) {
		c.Replication = len(c.ReplicaURLs)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = serve.DefaultMaxBatch
	}
	if c.UpstreamTimeout <= 0 {
		c.UpstreamTimeout = DefaultUpstreamTimeout
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.RetryBase <= 0 {
		c.RetryBase = DefaultRetryBase
	}
	if c.RetryMax <= 0 {
		c.RetryMax = DefaultRetryMax
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = DefaultHedgeMin
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = DefaultHedgeMax
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = DefaultProbeTimeout
	}
	if c.DownAfter <= 0 {
		c.DownAfter = DefaultDownAfter
	}
	if c.UpAfter <= 0 {
		c.UpAfter = DefaultUpAfter
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = serve.DefaultRetryAfter
	}
	return c
}

// Router is the replicated front tier: one HTTP handler that owns the
// partition, the health state, and the failover/hedge machinery.
type Router struct {
	cfg    Config
	reg    *telemetry.Registry
	ranges Ranges
	health []*replicaHealth
	client *http.Client

	draining atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// jitterSeq keys each backoff / Retry-After draw so concurrent
	// requests do not share one jitter value.
	jitterSeq atomic.Uint64

	mFailovers    *telemetry.Counter // failed-over answers, weighted by failovers per answer
	mHedges       *telemetry.Counter // hedge requests launched
	mHedgeWins    *telemetry.Counter // answers won by the hedge
	mRetries      *telemetry.Counter // failover attempts dispatched
	mRangeUnavail *telemetry.Counter // 503s for ranges with no live candidate
	mProbes       *telemetry.Counter
	mProbeFails   *telemetry.Counter
	writeErrs     *telemetry.Counter

	// status is georouter.status{code,plane}: the ledger serve keeps as
	// geoserve.status, so geobench cross-checks either tier the same way.
	status *obs.Ledger
}

// New builds a Router over the given fleet. Call Start to begin health
// probing and Close to stop it.
func New(cfg Config, reg *telemetry.Registry) (*Router, error) {
	if len(cfg.ReplicaURLs) == 0 {
		return nil, errors.New("router: no replica URLs")
	}
	if len(cfg.ReplicaURLs) > 1<<16 {
		return nil, fmt.Errorf("router: %d replicas exceeds the partition limit", len(cfg.ReplicaURLs))
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:    cfg,
		reg:    reg,
		ranges: Partition(len(cfg.ReplicaURLs)),
		health: make([]*replicaHealth, len(cfg.ReplicaURLs)),
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     30 * time.Second,
			},
		},
		stop:          make(chan struct{}),
		mFailovers:    reg.Counter("georouter.failovers"),
		mHedges:       reg.Counter("georouter.hedges"),
		mHedgeWins:    reg.Counter("georouter.hedge_wins"),
		mRetries:      reg.Counter("georouter.retries"),
		mRangeUnavail: reg.Counter("georouter.range_unavailable"),
		mProbes:       reg.Counter("georouter.probes"),
		mProbeFails:   reg.Counter("georouter.probe_failures"),
		writeErrs:     reg.Counter("georouter.write_errors"),
		status:        obs.NewLedger(reg, "georouter.status"),
	}
	for i := range rt.health {
		rt.health[i] = &replicaHealth{}
	}
	return rt, nil
}

// Start launches one prober goroutine per replica.
func (rt *Router) Start() {
	for i := range rt.cfg.ReplicaURLs {
		rt.wg.Add(1)
		go rt.probeLoop(i)
	}
}

// Close stops the probers and waits for them.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// StartDrain flips /readyz to 503 (data plane keeps serving), mirroring
// serve.Server's drain contract.
func (rt *Router) StartDrain() { rt.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// Ranges returns the partition (read-only; shared slice).
func (rt *Router) Ranges() Ranges { return rt.ranges }

// candidates returns the up replicas allowed to answer for primary's
// range: the Replication consecutive ring positions starting at the
// primary, filtered by health. Deliberately NOT a whole-ring scan — the
// bounded failure domain is the point: with Replication=1 a dead
// primary leaves its range uncovered (503), it does not silently spread
// load to replicas that never signed up for that range.
func (rt *Router) candidates(primary int) []int {
	n := len(rt.cfg.ReplicaURLs)
	out := make([]int, 0, rt.cfg.Replication)
	for k := 0; k < rt.cfg.Replication; k++ {
		i := (primary + k) % n
		if rt.health[i].Up() {
			out = append(out, i)
		}
	}
	return out
}

// Handler returns the router's routing table wrapped in the observe
// middleware (request ID + status ledger).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/lookup", rt.handleLookup)
	mux.HandleFunc("/batch", rt.handleBatch)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/readyz", rt.handleReadyz)
	mux.HandleFunc("/version", rt.handleVersion)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/admin/replica", rt.handleAdminReplica)
	return rt.observe(mux)
}

// observe assigns/echoes the request ID and feeds the status ledger.
func (rt *Router) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := obs.RequestID(r)
		w.Header().Set(obs.RequestIDHeader, id)
		r.Header.Set(obs.RequestIDHeader, id) // forwarded verbatim on every upstream hop
		sw := &obs.StatusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		rt.status.Counter(sw.Status(), obs.PlaneOf(r.URL.Path)).Inc()
	})
}

// errBody is the JSON error envelope (same shape as serve's).
type errBody struct {
	Error string `json:"error"`
}

// writeJSON writes one JSON document with the given status.
func (rt *Router) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		rt.writeErrs.Inc()
	}
}

// writeUnavailable is the bounded-failure-domain answer: 503 with a
// jittered Retry-After so the range's clients come back spread out, not
// as one synchronized wave the moment the replica recovers.
func (rt *Router) writeUnavailable(w http.ResponseWriter, primary int) {
	rt.mRangeUnavail.Inc()
	secs := serve.RetryAfterSecs(rt.cfg.RetryAfter, rt.cfg.Seed, uint64(primary), rt.jitterSeq.Add(1))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	rt.writeJSON(w, http.StatusServiceUnavailable,
		errBody{fmt.Sprintf("no live replica for range of replica %d", primary)})
}

// upResult is one attempt's outcome.
type upResult struct {
	replica int
	hedge   bool
	status  int
	ctype   string
	body    []byte
	err     error
}

// ok reports whether the attempt produced a proxyable answer: any
// upstream response below 500 (404s and 400s are real answers that must
// not trigger failover — the fallback would just repeat them).
func (r upResult) ok() bool { return r.err == nil && r.status < http.StatusInternalServerError }

// execute races one request across the candidate replicas: primary
// first, a hedge copy to the next candidate after hedgeDelay (when
// enabled), and failover to the remaining candidates — with jittered
// exponential backoff — each time an attempt fails with a transport
// error or 5xx. First proxyable answer wins and cancels the losers.
//
// Returns the winning result plus the number of failed attempts that
// preceded it, or ok=false when every candidate was exhausted (the
// caller distinguishes deadline expiry from exhaustion via ctx.Err()).
func (rt *Router) execute(ctx context.Context, cands []int, hedge bool,
	mk func(ctx context.Context, replica int) (*http.Request, error)) (win upResult, failures int, ok bool) {

	resCh := make(chan upResult, len(cands)+1)
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	inflight := 0
	launch := func(replica int, hedged bool) {
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		inflight++
		go rt.attempt(actx, replica, hedged, mk, resCh)
	}

	next := 0
	launch(cands[next], false)
	next++

	var hedgeC <-chan time.Time
	if hedge && rt.cfg.Hedge && len(cands) > 1 {
		t := time.NewTimer(rt.hedgeDelay(cands[0]))
		defer t.Stop()
		hedgeC = t.C
	}

	for {
		select {
		case r := <-resCh:
			inflight--
			if r.ok() {
				return r, failures, true
			}
			failures++
			if inflight > 0 {
				// A hedge (or an earlier straggler) is still running; its
				// answer may land any moment — no need to dispatch more.
				continue
			}
			if next >= len(cands) {
				return upResult{}, failures, false
			}
			if !serve.Sleep(ctx, rt.backoff(failures)) {
				return upResult{}, failures, false
			}
			rt.mRetries.Inc()
			launch(cands[next], false)
			next++
		case <-hedgeC:
			hedgeC = nil
			if inflight == 1 && next < len(cands) {
				rt.mHedges.Inc()
				launch(cands[next], true)
				next++
			}
		case <-ctx.Done():
			return upResult{}, failures, false
		}
	}
}

// attempt runs one upstream request with the per-attempt budget and
// reports the outcome on ch. Health is scored here — except for losers
// canceled after another attempt won, which say nothing about the
// replica's health.
func (rt *Router) attempt(ctx context.Context, replica int, hedged bool,
	mk func(ctx context.Context, replica int) (*http.Request, error), ch chan<- upResult) {

	actx, cancel := context.WithTimeout(ctx, rt.cfg.UpstreamTimeout)
	defer cancel()
	start := time.Now()
	res := upResult{replica: replica, hedge: hedged}
	req, err := mk(actx, replica)
	if err != nil {
		res.err = err
		ch <- res
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		res.err = err
		if ctx.Err() == nil || errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// A real failure (connect refused, reset, or this attempt's
			// own timeout) — not a cancellation by the winning attempt.
			rt.health[replica].recordOutcome(false, 0, rt.cfg.DownAfter)
		}
		ch <- res
		return
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	res.ctype = resp.Header.Get("Content-Type")
	res.body, err = io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBody))
	if err != nil {
		res.err = err
		res.status = 0
		if ctx.Err() == nil {
			rt.health[replica].recordOutcome(false, 0, rt.cfg.DownAfter)
		}
		ch <- res
		return
	}
	latMs := float64(time.Since(start)) / float64(time.Millisecond)
	rt.health[replica].recordOutcome(res.status < http.StatusInternalServerError, latMs, rt.cfg.DownAfter)
	ch <- res
}

// backoff returns the jittered exponential delay before failover
// attempt k (k >= 1): base·2^(k-1) capped at RetryMax, then scaled by
// [1, 2) deterministic jitter.
func (rt *Router) backoff(k int) time.Duration {
	d := rt.cfg.RetryBase
	for i := 1; i < k && d < rt.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > rt.cfg.RetryMax {
		d = rt.cfg.RetryMax
	}
	u := rhash.UnitFloat(rt.cfg.Seed, kRetryBackoff, rt.jitterSeq.Add(1))
	return time.Duration(float64(d) * (1 + u))
}

// hedgeDelay derives the hedge trigger from the primary's observed p99,
// clamped into [HedgeMin, HedgeMax]; with no latency history yet it
// hedges aggressively at HedgeMin.
func (rt *Router) hedgeDelay(primary int) time.Duration {
	d := time.Duration(rt.health[primary].hedgeDelayMs() * float64(time.Millisecond))
	if d < rt.cfg.HedgeMin {
		d = rt.cfg.HedgeMin
	}
	if d > rt.cfg.HedgeMax {
		d = rt.cfg.HedgeMax
	}
	return d
}

// setRouteHeaders stamps the routing verdict on the winning response
// and increments the matching counters AT THE SAME CODE POINT — that
// identity is what makes geobench's accounting exact: the sum of
// X-Router-Failovers values seen by clients must equal the
// georouter.failovers delta on /metrics, and the count of
// "X-Router-Hedge: won" answers must equal georouter.hedge_wins.
func (rt *Router) setRouteHeaders(w http.ResponseWriter, win upResult, failures int) {
	w.Header().Set("X-Router-Replica", strconv.Itoa(win.replica))
	if failures > 0 {
		w.Header().Set("X-Router-Failovers", strconv.Itoa(failures))
		rt.mFailovers.Add(int64(failures))
	}
	if win.hedge {
		w.Header().Set("X-Router-Hedge", "won")
		rt.mHedgeWins.Inc()
	}
}

// proxy writes the winning upstream answer verbatim (status + body;
// Content-Type from upstream, X-Request-Id already set once by observe).
func (rt *Router) proxy(w http.ResponseWriter, win upResult, failures int) {
	rt.setRouteHeaders(w, win, failures)
	if win.ctype != "" {
		w.Header().Set("Content-Type", win.ctype)
	}
	w.WriteHeader(win.status)
	if _, err := w.Write(win.body); err != nil {
		rt.writeErrs.Inc()
	}
}

// handleLookup routes GET /lookup?ip=A.B.C.D to the owner of ip's
// prefix range, with failover and (optionally) hedging.
func (rt *Router) handleLookup(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		rt.writeJSON(w, http.StatusMethodNotAllowed, errBody{"use GET"})
		return
	}
	raw := serve.QueryIP(req.URL.RawQuery)
	if raw == "" {
		rt.writeJSON(w, http.StatusBadRequest, errBody{"missing ip parameter"})
		return
	}
	a, err := ipaddr.Parse(raw)
	if err != nil {
		rt.writeJSON(w, http.StatusBadRequest, errBody{err.Error()})
		return
	}
	primary := rt.ranges.ReplicaFor(a)
	cands := rt.candidates(primary)
	if len(cands) == 0 {
		rt.writeUnavailable(w, primary)
		return
	}
	ctx, cancel := context.WithTimeout(req.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	reqID := req.Header.Get(obs.RequestIDHeader)
	win, failures, ok := rt.execute(ctx, cands, true, func(actx context.Context, replica int) (*http.Request, error) {
		up, err := http.NewRequestWithContext(actx, http.MethodGet,
			rt.cfg.ReplicaURLs[replica]+"/lookup?"+req.URL.RawQuery, nil)
		if err == nil {
			up.Header.Set(obs.RequestIDHeader, reqID)
		}
		return up, err
	})
	if !ok {
		if ctx.Err() != nil {
			rt.writeJSON(w, http.StatusGatewayTimeout, errBody{"request deadline expired"})
			return
		}
		rt.writeUnavailable(w, primary)
		return
	}
	rt.proxy(w, win, failures)
}

// batchIn/batchOut mirror serve's /batch documents.
type batchIn struct {
	IPs []string `json:"ips"`
}

type batchOut struct {
	Results []serve.LookupResult `json:"results"`
}

// handleBatch scatters POST /batch across the replicas owning each
// address's range and gathers the answers back into input order.
// Unparseable addresses are answered locally (the replicas would only
// echo the same per-item error); any sub-batch whose candidates are all
// exhausted fails the whole request with 503 — a partial batch would
// silently violate the one-result-per-input contract.
func (rt *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		rt.writeJSON(w, http.StatusMethodNotAllowed, errBody{"use POST"})
		return
	}
	// The body is read whole before it is decoded, as a replica reads it:
	// the cap applies to all of it, not only to its first JSON value, and
	// going over it is 413 on both tiers.
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, serve.MaxBatchBody))
	if err != nil {
		rt.writeJSON(w, serve.BodyErrorStatus(err), errBody{fmt.Sprintf("bad request body: %v", err)})
		return
	}
	var in batchIn
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&in); err != nil {
		rt.writeJSON(w, http.StatusBadRequest, errBody{fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if len(in.IPs) == 0 {
		rt.writeJSON(w, http.StatusBadRequest, errBody{"empty batch"})
		return
	}
	if len(in.IPs) > rt.cfg.MaxBatch {
		rt.writeJSON(w, http.StatusRequestEntityTooLarge,
			errBody{fmt.Sprintf("batch of %d exceeds limit %d", len(in.IPs), rt.cfg.MaxBatch)})
		return
	}

	out := batchOut{Results: make([]serve.LookupResult, len(in.IPs))}
	type group struct {
		ips     []string
		indices []int
	}
	groups := map[int]*group{}
	for i, raw := range in.IPs {
		a, err := ipaddr.Parse(raw)
		if err != nil {
			out.Results[i] = serve.LookupResult{IP: raw, Error: err.Error()}
			continue
		}
		p := rt.ranges.ReplicaFor(a)
		g := groups[p]
		if g == nil {
			g = &group{}
			groups[p] = g
		}
		g.ips = append(g.ips, raw)
		g.indices = append(g.indices, i)
	}

	ctx, cancel := context.WithTimeout(req.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	reqID := req.Header.Get(obs.RequestIDHeader)

	type groupResult struct {
		primary  int
		win      upResult
		failures int
		ok       bool
	}
	resCh := make(chan groupResult, len(groups))
	for primary, g := range groups {
		primary, g := primary, g
		cands := rt.candidates(primary)
		if len(cands) == 0 {
			resCh <- groupResult{primary: primary}
			continue
		}
		payload, err := json.Marshal(batchIn{IPs: g.ips})
		if err != nil {
			resCh <- groupResult{primary: primary}
			continue
		}
		go func() {
			win, failures, ok := rt.execute(ctx, cands, false, func(actx context.Context, replica int) (*http.Request, error) {
				up, err := http.NewRequestWithContext(actx, http.MethodPost,
					rt.cfg.ReplicaURLs[replica]+"/batch", bytes.NewReader(payload))
				if err == nil {
					up.Header.Set("Content-Type", "application/json")
					up.Header.Set(obs.RequestIDHeader, reqID)
				}
				return up, err
			})
			resCh <- groupResult{primary: primary, win: win, failures: failures, ok: ok}
		}()
	}

	totalFailovers := 0
	hedgeWon := false
	replicas := make([]string, 0, len(groups))
	for range groups {
		gr := <-resCh
		if !gr.ok {
			if ctx.Err() != nil {
				rt.writeJSON(w, http.StatusGatewayTimeout, errBody{"request deadline expired"})
				return
			}
			rt.writeUnavailable(w, gr.primary)
			return
		}
		var sub batchOut
		if gr.win.status != http.StatusOK || json.Unmarshal(gr.win.body, &sub) != nil ||
			len(sub.Results) != len(groups[gr.primary].indices) {
			// The replica answered but not with a usable batch document
			// (e.g. a 429 shed); the whole batch fails loudly rather
			// than fabricating per-item results.
			rt.writeJSON(w, http.StatusBadGateway,
				errBody{fmt.Sprintf("replica %d answered status %d for sub-batch", gr.win.replica, gr.win.status)})
			return
		}
		for j, idx := range groups[gr.primary].indices {
			out.Results[idx] = sub.Results[j]
		}
		totalFailovers += gr.failures
		hedgeWon = hedgeWon || gr.win.hedge
		replicas = append(replicas, strconv.Itoa(gr.win.replica))
	}

	rt.setRouteHeaders(w, upResult{replica: -1, hedge: hedgeWon}, totalFailovers)
	// The scatter touched several replicas; report them all (the -1 from
	// setRouteHeaders is replaced — batch answers are multi-replica).
	w.Header().Set("X-Router-Replica", joinSorted(replicas))
	rt.writeJSON(w, http.StatusOK, out)
}

// joinSorted renders the touched-replica set deterministically.
func joinSorted(ids []string) string {
	// Insertion sort; the set is at most the replica count.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += ","
		}
		out += id
	}
	return out
}

// replicaStatus is one replica's entry in the /healthz fleet view.
type replicaStatus struct {
	ID          int     `json:"id"`
	Addr        string  `json:"addr"`
	State       string  `json:"state"`
	ConsecFails int     `json:"consec_fails"`
	LatencyMs   float64 `json:"ewma_latency_ms"`
	ErrorRate   float64 `json:"ewma_error_rate"`
	Downs       uint64  `json:"downs"`
	Readmits    uint64  `json:"readmits"`
	Range       string  `json:"range"`
}

// healthBody is the /healthz response: router liveness plus the fleet
// health table geobench's chaos harness polls for readmission.
type healthBody struct {
	Status      string          `json:"status"`
	Replication int             `json:"replication"`
	Replicas    []replicaStatus `json:"replicas"`
}

// handleHealthz serves GET /healthz: always 200 while the process runs;
// the per-replica table is the payload.
func (rt *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	body := healthBody{Status: "ok", Replication: rt.cfg.Replication}
	for i, h := range rt.health {
		up, cf, lat, errRate, downs, readmits := h.snapshot()
		state := "down"
		if up {
			state = "up"
		}
		r := rt.ranges[i]
		body.Replicas = append(body.Replicas, replicaStatus{
			ID: i, Addr: rt.cfg.ReplicaURLs[i], State: state, ConsecFails: cf,
			LatencyMs: lat, ErrorRate: errRate, Downs: downs, Readmits: readmits,
			Range: fmt.Sprintf("%s-%s", r.Lo, r.Hi),
		})
	}
	rt.writeJSON(w, http.StatusOK, body)
}

// handleReadyz serves GET /readyz: ready only when every prefix range
// has at least one live candidate and the router is not draining.
func (rt *Router) handleReadyz(w http.ResponseWriter, req *http.Request) {
	if rt.Draining() {
		rt.writeJSON(w, http.StatusServiceUnavailable, errBody{"draining"})
		return
	}
	for i := range rt.ranges {
		if len(rt.candidates(i)) == 0 {
			rt.writeJSON(w, http.StatusServiceUnavailable,
				errBody{fmt.Sprintf("range of replica %d has no live candidate", i)})
			return
		}
	}
	rt.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleVersion proxies GET /version from the first live replica — the
// fleet serves one artifact, any live member can answer for it.
func (rt *Router) handleVersion(w http.ResponseWriter, req *http.Request) {
	ctx, cancel := context.WithTimeout(req.Context(), rt.cfg.UpstreamTimeout)
	defer cancel()
	for i := range rt.cfg.ReplicaURLs {
		if !rt.health[i].Up() {
			continue
		}
		up, err := http.NewRequestWithContext(ctx, http.MethodGet, rt.cfg.ReplicaURLs[i]+"/version", nil)
		if err != nil {
			continue
		}
		up.Header.Set(obs.RequestIDHeader, req.Header.Get(obs.RequestIDHeader))
		resp, err := rt.client.Do(up)
		if err != nil {
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		w.Header().Set("X-Router-Replica", strconv.Itoa(i))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write(body); err != nil {
			rt.writeErrs.Inc()
		}
		return
	}
	rt.writeJSON(w, http.StatusServiceUnavailable, errBody{"no live replica"})
}

// handleMetrics refreshes the per-replica gauges and renders the
// registry in Prometheus text format.
func (rt *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		rt.writeJSON(w, http.StatusMethodNotAllowed, errBody{"use GET"})
		return
	}
	for i, h := range rt.health {
		up, _, lat, errRate, downs, readmits := h.snapshot()
		rl := telemetry.Label{Key: "replica", Value: strconv.Itoa(i)}
		upVal := 0.0
		if up {
			upVal = 1
		}
		rt.reg.Gauge(telemetry.Name("georouter.replica.up", rl)).Set(upVal)
		rt.reg.Gauge(telemetry.Name("georouter.replica.ewma_latency_ms", rl)).Set(lat)
		rt.reg.Gauge(telemetry.Name("georouter.replica.ewma_error_rate", rl)).Set(errRate)
		rt.reg.Gauge(telemetry.Name("georouter.replica.downs", rl)).Set(float64(downs))
		rt.reg.Gauge(telemetry.Name("georouter.replica.readmits", rl)).Set(float64(readmits))
	}
	w.Header().Set("Content-Type", obs.ContentType)
	if err := obs.WritePrometheus(w, obs.LabeledRegistry{Label: rt.cfg.MetricsLabel, Reg: rt.reg}); err != nil {
		rt.writeErrs.Inc()
	}
}

// adminReplicaResponse acknowledges a fleet-control action.
type adminReplicaResponse struct {
	Replica int    `json:"replica"`
	Action  string `json:"action"`
	Status  string `json:"status"`
}

// handleAdminReplica serves POST /admin/replica?replica=N&action=A with
// A in stop|start|stall|unstall — the chaos-injection surface geobench
// uses to kill and revive replicas mid-run. Token-guarded like serve's
// /admin/reload; 501 when the router has no fleet controller (replicas
// are external processes it cannot manipulate).
func (rt *Router) handleAdminReplica(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		rt.writeJSON(w, http.StatusMethodNotAllowed, errBody{"use POST"})
		return
	}
	if rt.cfg.AdminToken == "" {
		rt.writeJSON(w, http.StatusForbidden, errBody{"admin endpoint disabled (no admin token configured)"})
		return
	}
	if subtle.ConstantTimeCompare([]byte(req.Header.Get("X-Admin-Token")), []byte(rt.cfg.AdminToken)) != 1 {
		rt.writeJSON(w, http.StatusForbidden, errBody{"bad admin token"})
		return
	}
	i, err := strconv.Atoi(req.URL.Query().Get("replica"))
	if err != nil || i < 0 || i >= len(rt.cfg.ReplicaURLs) {
		rt.writeJSON(w, http.StatusBadRequest, errBody{"replica must be a valid replica index"})
		return
	}
	if rt.cfg.Controller == nil {
		rt.writeJSON(w, http.StatusNotImplemented, errBody{"no fleet controller attached"})
		return
	}
	action := req.URL.Query().Get("action")
	switch action {
	case "stop":
		err = rt.cfg.Controller.StopReplica(i)
	case "start":
		err = rt.cfg.Controller.StartReplica(i)
	case "stall":
		err = rt.cfg.Controller.StallReplica(i, true)
	case "unstall":
		err = rt.cfg.Controller.StallReplica(i, false)
	default:
		rt.writeJSON(w, http.StatusBadRequest, errBody{"action must be stop|start|stall|unstall"})
		return
	}
	if err != nil {
		rt.writeJSON(w, http.StatusConflict, errBody{err.Error()})
		return
	}
	rt.writeJSON(w, http.StatusOK, adminReplicaResponse{Replica: i, Action: action, Status: "ok"})
}

// probeLoop actively checks one replica's /readyz every ProbeInterval.
// The optional fault profile can stall a probe deterministically; a
// stall at or beyond the probe budget counts as a probe failure without
// tying up a connection.
func (rt *Router) probeLoop(i int) {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	var n uint64
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
		n++
		rt.mProbes.Inc()
		if rt.cfg.Prof != nil && rt.cfg.Prof.Enabled() {
			stall := rt.cfg.Prof.ProbeStallMs(rt.cfg.Seed, uint64(i), n)
			if stall > 0 {
				if time.Duration(stall*float64(time.Millisecond)) >= rt.cfg.ProbeTimeout {
					rt.mProbeFails.Inc()
					rt.health[i].recordProbe(false, rt.cfg.DownAfter, rt.cfg.UpAfter)
					continue
				}
				if !sleepDone(rt.stop, time.Duration(stall*float64(time.Millisecond))) {
					return
				}
			}
		}
		ok := rt.probeOnce(i)
		if !ok {
			rt.mProbeFails.Inc()
		}
		rt.health[i].recordProbe(ok, rt.cfg.DownAfter, rt.cfg.UpAfter)
	}
}

// probeOnce performs one GET /readyz against replica i.
func (rt *Router) probeOnce(i int) bool {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rt.cfg.ReplicaURLs[i]+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// sleepDone sleeps d or until stop closes; reports whether the sleep
// completed.
func sleepDone(stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}
