package router

import (
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

	"geoloc/internal/ipaddr"
	"geoloc/internal/obs"
	"geoloc/internal/serve"
	"geoloc/internal/telemetry"
)

// Defaults for Config fields left zero.
const (
	DefaultUpstreamTimeout = 2 * time.Second
	DefaultRequestTimeout  = 5 * time.Second
	DefaultProbeInterval   = 200 * time.Millisecond
	DefaultProbeTimeout    = time.Second
	DefaultDownAfter       = 2
	DefaultUpAfter         = 3
)

// maxUpstreamBody bounds how much of a replica response the router will
// buffer: the /batch response ceiling plus envelope headroom.
const maxUpstreamBody = 1<<22 + 4096

// FleetController lets the router's admin plane manipulate replicas at
// the process-lifecycle level. LocalFleet implements it for the
// single-binary multi-replica mode; a multi-host deployment would
// implement it against its supervisor.
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
	// in ring order: a lookup tries replica Partition(n).ReplicaFor(addr)
	// first and its ring successors after it.
	ReplicaURLs []string

	// UpstreamTimeout bounds one attempt against one replica;
	// RequestTimeout bounds the whole routed request across attempts.
	UpstreamTimeout time.Duration
	RequestTimeout  time.Duration

	// Probing: every ProbeInterval each replica's /readyz is checked
	// with a ProbeTimeout budget. DownAfter consecutive failures mark a
	// replica down; UpAfter consecutive probe successes re-admit it.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	DownAfter     int
	UpAfter       int

	// RetryAfter is the base of the jittered Retry-After hint on the 503
	// a request gets when no replica is live (serve.DefaultRetryAfter
	// when zero).
	RetryAfter time.Duration

	// Seed keys the Retry-After jitter draws.
	Seed uint64

	// AdminToken guards /admin/replica; empty disables the endpoint.
	AdminToken string

	// Controller backs /admin/replica (nil → 501).
	Controller FleetController
}

// withDefaults fills zero (or negative) fields.
func (c Config) withDefaults() Config {
	orDefault(&c.UpstreamTimeout, DefaultUpstreamTimeout)
	orDefault(&c.RequestTimeout, DefaultRequestTimeout)
	orDefault(&c.ProbeInterval, DefaultProbeInterval)
	orDefault(&c.ProbeTimeout, DefaultProbeTimeout)
	orDefault(&c.DownAfter, DefaultDownAfter)
	orDefault(&c.UpAfter, DefaultUpAfter)
	orDefault(&c.RetryAfter, serve.DefaultRetryAfter)
	return c
}

func orDefault[T int | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Router is the replicated front tier: one HTTP handler that owns the
// ring, the health state and the failover loop.
type Router struct {
	cfg    Config
	reg    *telemetry.Registry
	ranges Ranges
	health []*replicaHealth
	ups    []*upstream // the router's only HTTP client, one per replica

	draining atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// batchSeq deals batches round the ring; jitterSeq keys each
	// Retry-After draw so concurrent 503s do not share one jitter value.
	batchSeq  atomic.Uint64
	jitterSeq atomic.Uint64

	mFailovers    *telemetry.Counter // failed-over answers, weighted by failovers per answer
	mRetries      *telemetry.Counter // attempts dispatched after a failed one
	mRangeUnavail *telemetry.Counter // 503s: no live replica answered
	mProbes       *telemetry.Counter
	mProbeFails   *telemetry.Counter
	writeErrs     *telemetry.Counter

	// status is georouter.status{code,plane}: the ledger serve keeps as
	// geoserve.status, so geobench cross-checks either tier the same way.
	status *obs.Ledger

	// onHealth, when set, runs after every health record — a probe's or a
	// request's outcome — so a test can wait on the event rather than on a
	// clock. Set it before Start and before the handler serves.
	onHealth func()
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
		cfg:           cfg,
		reg:           reg,
		ranges:        Partition(len(cfg.ReplicaURLs)),
		health:        make([]*replicaHealth, len(cfg.ReplicaURLs)),
		stop:          make(chan struct{}),
		mFailovers:    reg.Counter("georouter.failovers"),
		mRetries:      reg.Counter("georouter.retries"),
		mRangeUnavail: reg.Counter("georouter.range_unavailable"),
		mProbes:       reg.Counter("georouter.probes"),
		mProbeFails:   reg.Counter("georouter.probe_failures"),
		writeErrs:     reg.Counter("georouter.write_errors"),
		status:        obs.NewLedger(reg, "georouter.status"),
	}
	for i, base := range cfg.ReplicaURLs {
		u, err := newUpstream(i, base)
		if err != nil {
			return nil, err
		}
		rt.health[i] = &replicaHealth{}
		rt.ups = append(rt.ups, u)
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

// Close stops and waits for the probers and closes idle upstream conns.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
	for _, u := range rt.ups {
		u.closeIdle()
	}
}

// StartDrain flips /readyz to 503 (data plane keeps serving), mirroring
// serve.Server's drain contract.
func (rt *Router) StartDrain() { rt.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// Ranges returns the partition (read-only; shared slice).
func (rt *Router) Ranges() Ranges { return rt.ranges }

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
		ids, _ := obs.EchoRequestID(w.Header(), r)
		r.Header[obs.RequestIDHeader] = ids // forwarded verbatim on every upstream hop
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

// execute walks the ring from start over every replica, one attempt at a
// time: down replicas are skipped — read when reached, so one an earlier
// request just marked down costs this one nothing — and the first answer
// below 500 wins (a 404 or 400 is an answer the next replica would only
// repeat). It returns the answer and the failed attempts before it, or
// ok=false when no live replica answered, ctx died or the deadline passed.
func (rt *Router) execute(ctx context.Context, deadline time.Time, start int, method, path, query string, body []byte, reqID string) (win upResult, failures int, ok bool) {
	n := len(rt.ups)
	for k := 0; k < n && ctx.Err() == nil && time.Now().Before(deadline); k++ {
		i := (start + k) % n
		if !rt.health[i].Up() {
			continue
		}
		if failures > 0 {
			rt.mRetries.Inc()
		}
		if win, ok = rt.attempt(ctx, deadline, i, method, path, query, body, reqID); ok {
			return win, failures, true
		}
		failures++
	}
	return upResult{}, failures, false
}

// attempt runs one exchange within the attempt budget and the request's
// deadline and scores the replica: a transport error, timeout, malformed or
// oversized answer or 5xx is a failure; a client hang-up (or a request the
// router refused to put on the wire) scores nothing.
func (rt *Router) attempt(ctx context.Context, deadline time.Time, replica int, method, path, query string, body []byte, reqID string) (upResult, bool) {
	res, err := rt.ups[replica].roundTrip(ctx, rt.attemptDeadline(deadline), method, path, query, reqID, body, maxUpstreamBody)
	if err != nil {
		if ctx.Err() == nil && !errors.Is(err, errRefused) {
			rt.health[replica].recordOutcome(false, rt.cfg.DownAfter)
			rt.healthRecorded()
		}
		return upResult{}, false
	}
	res.replica = replica
	ok := res.status < http.StatusInternalServerError
	rt.health[replica].recordOutcome(ok, rt.cfg.DownAfter)
	rt.healthRecorded()
	if !ok {
		putBuf(res.buf)
	}
	return res, ok
}

// attemptDeadline is one attempt's deadline: UpstreamTimeout from now,
// never past the request's own.
func (rt *Router) attemptDeadline(deadline time.Time) time.Time {
	if dl := time.Now().Add(rt.cfg.UpstreamTimeout); dl.Before(deadline) {
		return dl
	}
	return deadline
}

// route runs one data-plane request round the ring from start and writes
// its outcome: the winning replica's answer verbatim, 504 when the client
// went away or the request deadline expired, or — no live replica answered
// — 503 with a jittered Retry-After, so clients come back spread out and
// not as one synchronized wave the moment a replica recovers.
//
// Headers and counters move AT THE SAME CODE POINT — that identity is
// what makes geobench's accounting exact: the sum of X-Router-Failovers
// values seen by clients must equal the georouter.failovers delta on
// /metrics, and every 503 is one georouter.range_unavailable.
func (rt *Router) route(w http.ResponseWriter, req *http.Request, start int, path, query string, body []byte) {
	ctx, deadline := req.Context(), time.Now().Add(rt.cfg.RequestTimeout)
	win, failures, ok := rt.execute(ctx, deadline, start, req.Method, path, query, body, req.Header.Get(obs.RequestIDHeader))
	if !ok {
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			rt.writeJSON(w, http.StatusGatewayTimeout, errBody{"request deadline expired"})
			return
		}
		rt.mRangeUnavail.Inc()
		secs := serve.RetryAfterSecs(rt.cfg.RetryAfter, rt.cfg.Seed, uint64(start), rt.jitterSeq.Add(1))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		rt.writeJSON(w, http.StatusServiceUnavailable, errBody{"no live replica"})
		return
	}
	if failures > 0 {
		w.Header().Set("X-Router-Failovers", strconv.Itoa(failures))
		rt.mFailovers.Add(int64(failures))
	}
	rt.proxy(w, win)
}

// proxy writes a replica's answer — status, body, Content-Type and
// Retry-After are the replica's; X-Request-Id was set once by observe —
// and releases its buffer.
func (rt *Router) proxy(w http.ResponseWriter, res upResult) {
	h := w.Header()
	h["X-Router-Replica"] = rt.ups[res.replica].id
	if res.ctype == jsonType {
		h["Content-Type"] = jsonHdr
	} else if res.ctype != "" {
		h.Set("Content-Type", res.ctype)
	}
	if res.retryAfter != "" {
		h.Set("Retry-After", res.retryAfter)
	}
	serve.SetBodyLength(h, len(res.body))
	w.WriteHeader(res.status)
	if _, err := w.Write(res.body); err != nil {
		rt.writeErrs.Inc()
	}
	putBuf(res.buf)
}

// handleLookup routes GET /lookup?ip=A.B.C.D, starting at the replica the
// partition assigns ip's prefix range.
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
	rt.route(w, req, rt.ranges.ReplicaFor(a), "/lookup", req.URL.RawQuery, nil)
}

// handleBatch forwards POST /batch whole to one replica, dealt round the
// ring, and proxies the answer back: validation, the -max-batch cap and
// per-item rendering are the replica's, so a routed batch is a direct
// batch byte for byte. The router only bounds the body it buffers for
// the retries, at the replica's own cap.
func (rt *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		rt.writeJSON(w, http.StatusMethodNotAllowed, errBody{"use POST"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, serve.MaxBatchBody))
	if err != nil {
		rt.writeJSON(w, serve.BodyErrorStatus(err), errBody{fmt.Sprintf("bad request body: %v", err)})
		return
	}
	start := int((rt.batchSeq.Add(1) - 1) % uint64(len(rt.cfg.ReplicaURLs)))
	rt.route(w, req, start, "/batch", "", body)
}

// replicaStatus is one replica's entry in the /healthz fleet view.
type replicaStatus struct {
	ID          int    `json:"id"`
	Addr        string `json:"addr"`
	State       string `json:"state"`
	ConsecFails int    `json:"consec_fails"`
	Downs       uint64 `json:"downs"`
	Readmits    uint64 `json:"readmits"`
	Range       string `json:"range"`
}

// healthBody is the /healthz response: router liveness plus the fleet
// health table geobench's chaos harness polls for readmission.
type healthBody struct {
	Status   string          `json:"status"`
	Replicas []replicaStatus `json:"replicas"`
}

// handleHealthz serves GET /healthz: always 200 while the process runs;
// the per-replica table is the payload.
func (rt *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	body := healthBody{Status: "ok"}
	for i, h := range rt.health {
		up, cf, downs, readmits := h.snapshot()
		state := "down"
		if up {
			state = "up"
		}
		r := rt.ranges[i]
		body.Replicas = append(body.Replicas, replicaStatus{
			ID: i, Addr: rt.cfg.ReplicaURLs[i], State: state, ConsecFails: cf,
			Downs: downs, Readmits: readmits,
			Range: fmt.Sprintf("%s-%s", r.Lo, r.Hi),
		})
	}
	rt.writeJSON(w, http.StatusOK, body)
}

// handleReadyz serves GET /readyz: ready while at least one replica is
// live — any of them answers any address — and the router is not
// draining.
func (rt *Router) handleReadyz(w http.ResponseWriter, req *http.Request) {
	if rt.Draining() {
		rt.writeJSON(w, http.StatusServiceUnavailable, errBody{"draining"})
		return
	}
	for _, h := range rt.health {
		if h.Up() {
			rt.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
	}
	rt.writeJSON(w, http.StatusServiceUnavailable, errBody{"no live replica"})
}

// handleVersion proxies GET /version from the first live replica — the
// fleet serves one artifact, any live member can answer for it. Each
// attempt gets its own deadline, as in attempt, so a stalled replica
// cannot spend the next one's budget.
func (rt *Router) handleVersion(w http.ResponseWriter, req *http.Request) {
	deadline := time.Now().Add(rt.cfg.RequestTimeout)
	for i, u := range rt.ups {
		if !rt.health[i].Up() {
			continue
		}
		res, err := u.roundTrip(req.Context(), rt.attemptDeadline(deadline), http.MethodGet, "/version", "", req.Header.Get(obs.RequestIDHeader), nil, 1<<16)
		if res.replica = i; err == nil && res.status == http.StatusOK {
			rt.proxy(w, res)
			return
		}
		putBuf(res.buf)
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
		up, _, downs, readmits := h.snapshot()
		rl := telemetry.Label{Key: "replica", Value: strconv.Itoa(i)}
		upVal := 0.0
		if up {
			upVal = 1
		}
		rt.reg.Gauge(telemetry.Name("georouter.replica.up", rl)).Set(upVal)
		rt.reg.Gauge(telemetry.Name("georouter.replica.downs", rl)).Set(float64(downs))
		rt.reg.Gauge(telemetry.Name("georouter.replica.readmits", rl)).Set(float64(readmits))
	}
	w.Header().Set("Content-Type", telemetry.ContentType)
	if err := rt.reg.WritePrometheus(w); err != nil {
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
func (rt *Router) probeLoop(i int) {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
		rt.mProbes.Inc()
		res, err := rt.ups[i].roundTrip(context.Background(), time.Now().Add(rt.cfg.ProbeTimeout), http.MethodGet, "/readyz", "", "", nil, 1<<12)
		putBuf(res.buf)
		ok := err == nil && res.status == http.StatusOK
		if !ok {
			rt.mProbeFails.Inc()
		}
		rt.health[i].recordProbe(ok, rt.cfg.DownAfter, rt.cfg.UpAfter)
		rt.healthRecorded()
	}
}

// healthRecorded runs the onHealth hook, if any.
func (rt *Router) healthRecorded() {
	if rt.onHealth != nil {
		rt.onHealth()
	}
}
