// Package serve is geoserve's robust serving core: the query layer over
// a compiled GEODSET artifact, hardened for production traffic.
//
// Three properties distinguish it from a plain handler over a dataset
// (DESIGN.md §3.6):
//
//   - Hot-swap: the artifact's reader is published through an atomic
//     pointer (swap.go), so a new artifact can be rotated in under live
//     load — in-flight requests finish on the snapshot they captured,
//     new requests see the new generation, and a reload that fails to
//     decode rolls back by never publishing.
//   - Admission control: a concurrency limit with a bounded, timed queue
//     sheds overload as 429 + Retry-After, and a per-request deadline
//     turns every wait the server imposes into a prompt 504
//     (admission.go). Both run inline, on the connection's
//     goroutine, against the real ResponseWriter.
//   - Drain: readiness (/readyz) flips to 503 the moment shutdown
//     starts, so load balancers stop sending while in-flight requests
//     complete; the data plane keeps answering until the listener
//     closes.
//
// The package is pure mechanism — cmd/geoserve wires flags, signals and
// the http.Server around it, cmd/geobench proves the properties hold
// under load.
package serve

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"geoloc/internal/dataset"
	"geoloc/internal/faults"
	"geoloc/internal/ipaddr"
	"geoloc/internal/ipindex"
	"geoloc/internal/obs"
	"geoloc/internal/telemetry"
)

// DefaultMaxBatch caps /batch request size; larger requests get 413.
const DefaultMaxBatch = 1024

// MaxBatchBody caps a /batch request body in bytes, on a replica and on the
// router in front of it; a longer body gets 413 whatever it holds.
const MaxBatchBody = 1 << 22

// BodyErrorStatus is the status for a request body that could not be read:
// 413 when it ran past its http.MaxBytesReader cap, 400 otherwise. The
// router answers its own /batch bodies with it too.
func BodyErrorStatus(err error) int {
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Admission defaults; Config fields override them.
const (
	DefaultMaxInflight    = 256
	DefaultMaxQueue       = 1024
	DefaultQueueTimeout   = 1 * time.Second
	DefaultRequestTimeout = 5 * time.Second
	DefaultRetryAfter     = 1 * time.Second
)

// Config tunes a Server. The zero value gets sane production defaults;
// set a field negative where documented to disable that limit.
type Config struct {
	// Prof injects deterministic serving faults (nil = none).
	Prof *faults.Profile
	// MaxBatch caps /batch (0 = DefaultMaxBatch).
	MaxBatch int

	// Mmap has no effect.
	//
	// Deprecated: every GEODSET2 artifact is mapped where the platform can
	// (dataset.Open2). Kept for one release because benchmark/ sets it.
	Mmap bool

	// MaxInflight bounds concurrently executing data-plane requests
	// (0 = DefaultMaxInflight, negative = unlimited: admission off).
	MaxInflight int
	// MaxQueue bounds requests waiting for an inflight slot; beyond it
	// requests are shed immediately (0 = DefaultMaxQueue).
	MaxQueue int
	// QueueTimeout bounds how long a request may wait for a slot before
	// being shed (0 = DefaultQueueTimeout).
	QueueTimeout time.Duration
	// RequestTimeout is the per-request deadline; on expiry the client
	// gets 504 (0 = DefaultRequestTimeout, negative = no deadline).
	RequestTimeout time.Duration
	// RetryAfter is the backoff hint sent with every 429
	// (0 = DefaultRetryAfter).
	RetryAfter time.Duration

	// AdminToken guards POST /admin/reload. Empty disables the endpoint
	// entirely (403): an unauthenticated reload is a denial-of-service
	// primitive.
	AdminToken string

	// AccessLog receives one structured record per answered request —
	// always for non-2xx, 1-in-LogSample for successes (nil = no access
	// logs).
	AccessLog *slog.Logger
	// LogSample is the 1-in-N sampling rate for successful-request
	// access logs (0 = log only non-2xx).
	LogSample int
	// TraceSample is the 1-in-N sampling rate for per-request stage
	// spans (0 = no request tracing). Sampled spans accumulate in the
	// registry, so this is a diagnosis knob, not an always-on default.
	TraceSample int
}

// withDefaults resolves the zero-value conventions.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = DefaultQueueTimeout
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	return c
}

// Server answers geolocation queries from the artifact it last published
// (swap.go). All handlers are safe for concurrent use, including
// concurrently with Publish/Reload.
type Server struct {
	cfg Config

	// The published artifact: requests load cur once; publishers
	// serialize on pubMu, which guards gen.
	cur       atomic.Pointer[Artifact]
	pubMu     sync.Mutex
	gen       uint64
	swaps     *telemetry.Counter
	swapFails *telemetry.Counter

	sem      chan struct{} // admission slots; nil = unlimited
	queued   atomic.Int64
	draining atomic.Bool
	shedSeq  atomic.Uint64 // keys the per-shed Retry-After jitter draw

	// batchPool recycles /batch request scratch (batchscan.go).
	batchPool sync.Pool

	// sleep implements fault-injected stalls; injectable so tests don't
	// actually stall. Must honour the context (see Sleep).
	sleep func(context.Context, time.Duration) bool
	// queueTimer starts an admission wait's QueueTimeout timer; injectable
	// so a test can tell when a request has joined the queue.
	queueTimer func(time.Duration) *time.Timer

	reqLookup  *telemetry.Counter
	reqBatch   *telemetry.Counter
	reqHealth  *telemetry.Counter
	hits       *telemetry.Counter
	misses     *telemetry.Counter
	badInput   *telemetry.Counter
	readFails  *telemetry.Counter
	injectFail *telemetry.Counter
	injectMs   *telemetry.Counter
	sheds      *telemetry.Counter
	expired    *telemetry.Counter
	writeErrs  *telemetry.Counter
	latencyMs  *telemetry.Histogram

	// status is the per-status, per-plane ledger geoserve.status{code,plane}
	// that geobench cross-checks its client-side ledger against (data plane
	// only; control traffic like its own /metrics scrapes is bookkept
	// separately).
	status    *obs.Ledger
	statusReg *telemetry.Registry

	// Observability plane (obs.go).
	logSeq   atomic.Uint64
	traceSeq atomic.Uint64
}

// New wires a server with no artifact yet: /readyz answers 503 and the
// data plane 503s until the first Publish. reg receives the serving
// metrics: geoserve passes its own telemetry.New() registry, which GET
// /metrics serves; tests pass a private one.
func New(cfg Config, reg *telemetry.Registry) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		swaps:      reg.Counter("geoserve.swaps"),
		swapFails:  reg.Counter("geoserve.swap_failures"),
		sleep:      Sleep,
		queueTimer: time.NewTimer,

		reqLookup:  reg.Counter("geoserve.requests_lookup"),
		reqBatch:   reg.Counter("geoserve.requests_batch"),
		reqHealth:  reg.Counter("geoserve.requests_healthz"),
		hits:       reg.Counter("geoserve.hits"),
		misses:     reg.Counter("geoserve.misses"),
		badInput:   reg.Counter("geoserve.bad_input"),
		readFails:  reg.Counter("geoserve.read_failures"),
		injectFail: reg.Counter("geoserve.injected_failures"),
		injectMs:   reg.Counter("geoserve.injected_stall_ms"),
		sheds:      reg.Counter("geoserve.shed"),
		expired:    reg.Counter("geoserve.deadline_expired"),
		writeErrs:  reg.Counter("geoserve.write_errors"),
		latencyMs:  reg.Histogram("geoserve.latency_ms", telemetry.LatencyBoundsMs),

		status:    obs.NewLedger(reg, "geoserve.status"),
		statusReg: reg,
	}
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	return s
}

// Index builds an ipindex over the active artifact's /24 keys (Lookup
// answers a record's position); nil before the first Publish.
//
// Deprecated: no request is answered from an ipindex; this is its only
// importer. Kept for one release because benchmark/ peels it.
func (s *Server) Index() *ipindex.Index {
	a := s.acquire()
	if a == nil {
		return nil
	}
	defer a.R2.Unpin()
	keys := make([]ipaddr.Prefix24, 0, a.Records)
	if err := a.R2.All(func(r dataset.Record) error {
		keys = append(keys, r.Prefix)
		return nil
	}); err != nil {
		return nil
	}
	return ipindex.New(keys)
}

// StartDrain flips readiness: /readyz answers 503 from now on while the
// data plane keeps serving, so a load balancer stops routing here and
// in-flight work completes. Idempotent; there is no way back — draining
// processes exit.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the routing table: one mux behind the observe
// middleware (request ID, status ledger, latency histogram, access log). The
// data-plane endpoints (/lookup, /batch) are registered through serveData,
// which sets the request's deadline and takes an admission slot before the
// handler runs; control-plane endpoints (including /metrics)
// bypass both so an operator can always observe and steer an overloaded
// server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/lookup", s.serveData(s.handleLookup))
	mux.HandleFunc("/batch", s.serveData(s.handleBatch))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/version", s.handleVersion)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/admin/reload", s.handleReload)
	return s.observe(mux)
}

// LookupResult is the JSON answer for one IP. Either Error is set or the
// geolocation fields are.
type LookupResult struct {
	IP        string  `json:"ip"`
	Prefix    string  `json:"prefix,omitempty"`
	Lat       float64 `json:"lat,omitempty"`
	Lon       float64 `json:"lon,omitempty"`
	RadiusKm  float64 `json:"radius_km,omitempty"`
	Method    string  `json:"method,omitempty"`
	Sanitized bool    `json:"sanitized,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// errorBody is the JSON error envelope for whole-request failures.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON writes one JSON document with the given status. Encode
// failures (almost always a client that hung up mid-write) are counted,
// not silently dropped.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.writeErrs.Inc()
	}
}

// resolveKind classifies a resolve outcome for status mapping.
type resolveKind int

const (
	resolveOK resolveKind = iota
	resolveMiss
	resolveInjected
	resolveReadFail
	resolveDeadline // never rendered: the caller answers through deadlineExpired
)

// message is the client-visible error text for a non-OK outcome.
func (k resolveKind) message() string {
	switch k {
	case resolveMiss:
		return "no record covers this address"
	case resolveInjected:
		return "backend unavailable (injected)"
	case resolveReadFail:
		return "artifact read failed"
	}
	return ""
}

// status is the HTTP status for a resolve outcome. A read failure — a
// damaged block in a GEODSET2 artifact — answers 503 like an injected
// fault so clients retry, not 404.
func (k resolveKind) status() int {
	switch k {
	case resolveMiss:
		return http.StatusNotFound
	case resolveInjected, resolveReadFail:
		return http.StatusServiceUnavailable
	}
	return http.StatusOK
}

// injectFaults applies the profile's serving faults to one parsed address:
// a deterministic extra stall, which honours the request deadline
// (resolveDeadline when it dies first), then a deterministic per-IP failure
// (resolveInjected; the caller maps it to 503 or a per-item error).
// resolveOK means the address is to be looked up. A stall waits on m's wait
// context, which it builds if the request has not waited before.
func (s *Server) injectFaults(m *reqMeta, r *http.Request, art *Artifact, a ipaddr.Addr) resolveKind {
	if ms := s.cfg.Prof.ServeStallMs(art.Hdr.Seed, uint64(a)); ms > 0 {
		s.injectMs.Add(int64(ms))
		if !s.sleep(m.waitCtx(r), time.Duration(ms*float64(time.Millisecond))) {
			return resolveDeadline
		}
	}
	if s.cfg.Prof.ServeFailed(art.Hdr.Seed, uint64(a)) {
		s.injectFail.Inc()
		return resolveInjected
	}
	return resolveOK
}

// tally is one request's count of its addresses' outcomes, added to the
// server's counters once, when the request is answered: a 256-address
// batch makes four atomic adds, not one per address on counters every
// handler goroutine writes.
type tally struct{ hits, misses, readFails, bad int64 }

// classify counts one reader answer — Find's ok and err — and names its
// outcome.
func (t *tally) classify(ok bool, err error) resolveKind {
	switch {
	case err != nil:
		t.readFails++
		return resolveReadFail
	case !ok:
		t.misses++
		return resolveMiss
	}
	t.hits++
	return resolveOK
}

// count adds t to the server's counters.
func (s *Server) count(t *tally) {
	s.hits.Add(t.hits)
	s.misses.Add(t.misses)
	s.readFails.Add(t.readFails)
	s.badInput.Add(t.bad)
}

// resolveRec answers one parsed address against one artifact snapshot:
// the profile's faults, then the lookup. It returns the bare record —
// rendering is the caller's problem — so the steady-state path stays
// allocation-free.
func (s *Server) resolveRec(m *reqMeta, req *http.Request, art *Artifact, a ipaddr.Addr) (dataset.Record, resolveKind) {
	if kind := s.injectFaults(m, req, art, a); kind != resolveOK {
		return dataset.Record{}, kind
	}
	var t tally
	r, ok, err := art.R2.Find(a)
	kind := t.classify(ok, err)
	s.count(&t)
	return r, kind
}

// acquire captures the current artifact and pins its reader against a
// concurrent swap's close. The retry loop covers the one racy window:
// the load returned an artifact that a swap retired (and closed) before the
// pin landed — the next load sees the new generation. A reader closed
// while still current was closed by its owner shutting down
// (LocalFleet.Close), not by a swap: there is nothing left to serve.
func (s *Server) acquire() *Artifact {
	for {
		a := s.cur.Load()
		if a == nil || a.R2.TryPin() {
			return a
		}
		if s.cur.Load() == a {
			return nil
		}
	}
}

// handleLookup serves GET /lookup?ip=A.B.C.D. The steady-state path —
// pin artifact, parse, resolve, render from a pooled buffer — performs
// zero heap allocations per request (gated by TestServeAllocs).
func (s *Server) handleLookup(w http.ResponseWriter, req *http.Request) {
	s.reqLookup.Inc()
	if req.Method != http.MethodGet {
		s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{"use GET"})
		return
	}
	art := s.acquire()
	if art == nil {
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{"no dataset published yet"})
		return
	}
	defer art.R2.Unpin()
	raw := QueryIP(req.URL.RawQuery)
	if raw == "" {
		s.badInput.Inc()
		s.writeJSON(w, http.StatusBadRequest, errorBody{"missing ip parameter"})
		return
	}
	a, err := ipaddr.Parse(raw)
	if err != nil {
		s.badInput.Inc()
		s.writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	m := metaOf(w)
	sp := s.stageSpan(m, "index-lookup")
	rec, kind := s.resolveRec(m, req, art, a)
	sp.End()
	if kind == resolveDeadline {
		s.deadlineExpired(w, "")
		return
	}
	enc := s.stageSpan(m, "encode")
	defer enc.End()
	buf := getBuf()
	buf.b = appendLookupResult(buf.b[:0], a, rec, kind)
	buf.b = append(buf.b, '\n')
	s.writeBytes(w, kind.status(), buf.b)
	putBuf(buf)
}

// batchRequest is the /batch input document.
type batchRequest struct {
	IPs []string `json:"ips"`
}

// handleBatch serves POST /batch {"ips": ["1.2.3.4", ...]} with
// {"results": [...]}: one result per input, in input order; per-item
// failures (bad IP, no record, injected fault) are reported in place so one
// bad address cannot fail the whole batch. The whole
// batch resolves against one artifact snapshot, so a hot-swap mid-batch
// cannot mix generations within one response. Each address is parsed as
// the body is split (batchscan.go) and has the profile's faults applied, in
// input order; everything still to be looked up then goes through one
// FindBatch (dataset/findbatch.go) — so a batch whose deadline dies in an
// injected stall has counted no hit or miss. Outcomes are tallied per
// request and counted once. The steady-state request allocates nothing
// per address (gated by TestServeAllocs).
func (s *Server) handleBatch(w http.ResponseWriter, req *http.Request) {
	s.reqBatch.Inc()
	if req.Method != http.MethodPost {
		s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{"use POST"})
		return
	}
	art := s.acquire()
	if art == nil {
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{"no dataset published yet"})
		return
	}
	defer art.R2.Unpin()
	sc := s.getScratch()
	defer s.putScratch(sc)
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, req.Body, MaxBatchBody)); err != nil {
		s.badInput.Inc()
		s.writeJSON(w, BodyErrorStatus(err), errorBody{fmt.Sprintf("bad request body: %v", err)})
		return
	}
	n, err := sc.items(s.cfg.MaxBatch)
	if err != nil {
		s.badInput.Inc()
		s.writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if n == 0 {
		s.badInput.Inc()
		s.writeJSON(w, http.StatusBadRequest, errorBody{"empty batch"})
		return
	}
	if n > s.cfg.MaxBatch {
		s.badInput.Inc()
		s.writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{fmt.Sprintf("batch of %d exceeds limit %d", n, s.cfg.MaxBatch)})
		return
	}
	m := metaOf(w)
	sp := s.stageSpan(m, "index-lookup")
	var t tally
	sc.states, sc.query = sized(sc.states, n), sized(sc.query, n)[:0]
	for i, it := range sc.spans {
		if !it.quad {
			t.bad++
			sc.states[i] = itemBadAddr
			continue
		}
		switch s.injectFaults(m, req, art, it.addr) {
		case resolveOK:
			sc.states[i] = itemQueried
			sc.query = append(sc.query, it.addr)
		case resolveInjected:
			sc.states[i] = itemInjected
		case resolveDeadline:
			sp.End()
			// The budget for the whole batch is gone.
			s.count(&t)
			s.deadlineExpired(w, " mid-batch")
			return
		}
	}
	sc.answers = sized(sc.answers, len(sc.query))
	art.R2.FindBatch(sc.query, sc.answers)
	sp.End()

	enc := s.stageSpan(m, "encode")
	defer enc.End()
	buf := getBuf()
	b := append(buf.b[:0], `{"results":[`...)
	body := sc.body.Bytes()
	answered := 0
	for i, state := range sc.states {
		if i > 0 {
			b = append(b, ',')
		}
		text := body[sc.spans[i].lo:sc.spans[i].hi]
		switch state {
		case itemQueried:
			ans := &sc.answers[answered]
			answered++
			b = appendItemResult(b, text, ans.Rec, t.classify(ans.Found, ans.Err))
		case itemInjected:
			b = appendItemResult(b, text, dataset.Record{}, resolveInjected)
		case itemBadAddr:
			// The scan builds no error text; Parse's is written from the item.
			sc.msg = ipaddr.AppendError(sc.msg[:0], text)
			b = appendErrorResult(b, text, sc.msg)
		}
	}
	s.count(&t)
	buf.b = append(b, "]}\n"...)
	s.writeBytes(w, http.StatusOK, buf.b)
	putBuf(buf)
}

// healthzBody is the /healthz response (liveness + artifact summary).
type healthzBody struct {
	Status     string `json:"status"`
	Records    int    `json:"records"`
	Profile    string `json:"profile"`
	Seed       uint64 `json:"dataset_seed"`
	Hash       string `json:"dataset_config_hash"`
	Generation uint64 `json:"generation"`
	FaultSet   string `json:"fault_profile,omitempty"`
}

// handleHealthz serves GET /healthz: liveness. It answers 200 whenever
// the process can serve at all, even while draining — kill decisions
// belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	s.reqHealth.Inc()
	art := s.Current()
	if art == nil {
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{"no dataset published yet"})
		return
	}
	body := healthzBody{
		Status:     "ok",
		Records:    art.Records,
		Profile:    art.Hdr.Profile,
		Seed:       art.Hdr.Seed,
		Hash:       fmt.Sprintf("%016x", art.Hdr.ConfigHash),
		Generation: art.Gen,
	}
	if s.cfg.Prof != nil {
		body.FaultSet = s.cfg.Prof.Name
	}
	s.writeJSON(w, http.StatusOK, body)
}

// handleReadyz serves GET /readyz: readiness. 503 before the first
// artifact and from the moment drain starts — the signal a load balancer
// keys routing on.
func (s *Server) handleReadyz(w http.ResponseWriter, req *http.Request) {
	switch {
	case s.Draining():
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{"draining"})
	case s.Current() == nil:
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{"no dataset published yet"})
	default:
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// versionBody is the /version response: the active artifact's identity.
type versionBody struct {
	Generation uint64 `json:"generation"`
	Source     string `json:"source"`
	Records    int    `json:"records"`
	Seed       uint64 `json:"dataset_seed"`
	Hash       string `json:"dataset_config_hash"`
	Profile    string `json:"profile"`
}

// handleVersion serves GET /version.
func (s *Server) handleVersion(w http.ResponseWriter, req *http.Request) {
	art := s.Current()
	if art == nil {
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{"no dataset published yet"})
		return
	}
	s.writeJSON(w, http.StatusOK, versionBody{
		Generation: art.Gen,
		Source:     art.Source,
		Records:    art.Records,
		Seed:       art.Hdr.Seed,
		Hash:       fmt.Sprintf("%016x", art.Hdr.ConfigHash),
		Profile:    art.Hdr.Profile,
	})
}

// reloadRequest is the /admin/reload input. An empty path re-loads the
// active artifact's source file.
type reloadRequest struct {
	Path string `json:"path"`
}

// reloadResponse reports a successful swap.
type reloadResponse struct {
	Generation uint64 `json:"generation"`
	Source     string `json:"source"`
	Records    int    `json:"records"`
	Seed       uint64 `json:"dataset_seed"`
	Hash       string `json:"dataset_config_hash"`
}

// handleReload serves POST /admin/reload, guarded by the admin token
// (X-Admin-Token header). A failed load keeps the old artifact serving
// and answers 422 — the client learns the artifact was rejected and the
// server rolls on.
func (s *Server) handleReload(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{"use POST"})
		return
	}
	if s.cfg.AdminToken == "" {
		s.writeJSON(w, http.StatusForbidden, errorBody{"admin endpoint disabled (no -admin-token configured)"})
		return
	}
	got := req.Header.Get("X-Admin-Token")
	if subtle.ConstantTimeCompare([]byte(got), []byte(s.cfg.AdminToken)) != 1 {
		s.writeJSON(w, http.StatusForbidden, errorBody{"bad admin token"})
		return
	}
	var in reloadRequest
	if req.Body != nil {
		// An empty body is a valid "reload in place" request.
		dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<16))
		if err := dec.Decode(&in); err != nil && !errors.Is(err, io.EOF) {
			s.badInput.Inc()
			s.writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("bad request body: %v", err)})
			return
		}
	}
	path := in.Path
	if path == "" {
		art := s.Current()
		if art == nil {
			s.writeJSON(w, http.StatusServiceUnavailable, errorBody{"no dataset published yet; reload needs a path"})
			return
		}
		path = art.Source
	}
	art, err := s.Reload(path)
	if err != nil {
		s.writeJSON(w, http.StatusUnprocessableEntity, errorBody{err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, reloadResponse{
		Generation: art.Gen,
		Source:     art.Source,
		Records:    art.Records,
		Seed:       art.Hdr.Seed,
		Hash:       fmt.Sprintf("%016x", art.Hdr.ConfigHash),
	})
}
