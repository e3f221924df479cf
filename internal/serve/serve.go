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
//     sheds overload as 429 + Retry-After, and a per-request deadline on
//     the request context turns every wait the server imposes into a
//     prompt 504 (admission.go). Both run inline, on the connection's
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

// Server answers geolocation queries from the currently published
// artifact. All handlers are safe for concurrent use, including
// concurrently with Publish/Reload.
type Server struct {
	cfg     Config
	swapper *Swapper

	sem      chan struct{} // admission slots; nil = unlimited
	queued   atomic.Int64
	draining atomic.Bool
	shedSeq  atomic.Uint64 // keys the per-shed Retry-After jitter draw

	// batchPool recycles /batch request scratch (batchscan.go).
	batchPool sync.Pool

	// sleep implements fault-injected stalls; injectable so tests don't
	// actually stall. Must honour the context (see Sleep).
	sleep func(context.Context, time.Duration) bool

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
// metrics (telemetry.Default() in the binary, a private registry in
// tests).
func New(cfg Config, reg *telemetry.Registry) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		swapper: NewSwapper(reg),
		sleep:   Sleep,

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
		latencyMs:  reg.Histogram("geoserve.latency_ms", telemetry.DefaultLatencyBoundsMs),

		status:    obs.NewLedger(reg, "geoserve.status"),
		statusReg: reg,
	}
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	return s
}

// Publish makes ds the active artifact, or keeps the old one and says why
// ds cannot be served (see Swapper.Publish).
func (s *Server) Publish(ds *dataset.Dataset, source string) (*Artifact, error) {
	return s.swapper.Publish(ds, source)
}

// PublishReader makes r2 the active artifact and takes ownership of it
// (see Swapper.PublishReader) — for callers that hold an image already,
// such as a fleet whose replicas share one.
func (s *Server) PublishReader(r2 *dataset.Reader2, source string) *Artifact {
	return s.swapper.PublishReader(r2, source)
}

// Reload loads and publishes the artifact file at path, keeping the old
// artifact on any failure (see Swapper.Reload).
func (s *Server) Reload(path string) (*Artifact, error) { return s.swapper.Reload(path) }

// Current returns the active artifact (nil before the first Publish).
func (s *Server) Current() *Artifact { return s.swapper.Current() }

// Index builds an ipindex over the active artifact's records (entry value
// = record position); nil before the first Publish.
//
// Deprecated: no request is answered from an ipindex; this is its only
// importer. Kept for one release because benchmark/ peels it.
func (s *Server) Index() *ipindex.Index {
	a := s.acquire()
	if a == nil {
		return nil
	}
	defer a.release()
	entries := make([]ipindex.Entry, 0, a.Records)
	if err := a.R2.All(func(r dataset.Record) error {
		entries = append(entries, ipindex.Entry{Prefix: ipindex.From24(r.Prefix), Value: int32(len(entries))})
		return nil
	}); err != nil {
		return nil
	}
	return ipindex.Build(entries)
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
// which puts the deadline on the request and takes an admission slot
// before the handler runs; control-plane endpoints (including /metrics)
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
// resolveOK means the address is to be looked up.
func (s *Server) injectFaults(ctx context.Context, art *Artifact, a ipaddr.Addr) resolveKind {
	if ms := s.cfg.Prof.ServeStallMs(art.Hdr.Seed, uint64(a)); ms > 0 {
		s.injectMs.Add(int64(ms))
		if !s.sleep(ctx, time.Duration(ms*float64(time.Millisecond))) {
			return resolveDeadline
		}
	}
	if s.cfg.Prof.ServeFailed(art.Hdr.Seed, uint64(a)) {
		s.injectFail.Inc()
		return resolveInjected
	}
	return resolveOK
}

// classify counts one reader answer — Find's three results — and names its
// outcome. It returns the bare record — rendering is the caller's problem —
// so the steady-state path stays allocation-free.
func (s *Server) classify(r dataset.Record, ok bool, err error) (dataset.Record, resolveKind) {
	if err != nil {
		s.readFails.Inc()
		return dataset.Record{}, resolveReadFail
	}
	if !ok {
		s.misses.Inc()
		return dataset.Record{}, resolveMiss
	}
	s.hits.Inc()
	return r, resolveOK
}

// resolveRec answers one parsed address against one artifact snapshot:
// the profile's faults, then the lookup.
func (s *Server) resolveRec(ctx context.Context, art *Artifact, a ipaddr.Addr) (dataset.Record, resolveKind) {
	if kind := s.injectFaults(ctx, art, a); kind != resolveOK {
		return dataset.Record{}, kind
	}
	return s.classify(art.R2.Find(a))
}

// acquire captures the current artifact and pins its reader against a
// concurrent swap's close. The retry loop covers the one racy window:
// Current loaded an artifact that a swap retired (and closed) before the
// pin landed — the next load sees the new generation. A reader closed
// while still current was closed by its owner shutting down
// (LocalFleet.Close), not by a swap: there is nothing left to serve.
func (s *Server) acquire() *Artifact {
	for {
		a := s.swapper.Current()
		if a == nil || a.pin() {
			return a
		}
		if s.swapper.Current() == a {
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
	defer art.release()
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
	m := metaFrom(req.Context())
	sp := s.stageSpan(m, "index-lookup")
	rec, kind := s.resolveRec(req.Context(), art, a)
	sp.End()
	if kind == resolveDeadline {
		s.deadlineExpired(w, req, "")
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
// cannot mix generations within one response. Each address is parsed where
// it lies in the body and has the profile's faults applied, in input order;
// everything still to be looked up then goes through one FindBatch
// (batchscan.go, dataset/findbatch.go) — so a batch whose deadline dies in
// an injected stall has counted no hit or miss. The steady-state request
// allocates nothing per address (gated by TestServeAllocs).
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
	defer art.release()
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
	m := metaFrom(req.Context())
	sp := s.stageSpan(m, "index-lookup")
	sc.addrs, sc.states, sc.query = sized(sc.addrs, n), sized(sc.states, n), sized(sc.query, n)[:0]
	body := sc.body.Bytes()
	for i, it := range sc.spans {
		a, err := ipaddr.ParseBytes(body[it.lo:it.hi])
		if err != nil {
			s.badInput.Inc()
			sc.states[i] = itemBadAddr
			continue
		}
		sc.addrs[i] = a
		switch s.injectFaults(req.Context(), art, a) {
		case resolveOK:
			sc.states[i] = itemQueried
			sc.query = append(sc.query, a)
		case resolveInjected:
			sc.states[i] = itemInjected
		case resolveDeadline:
			sp.End()
			// The budget for the whole batch is gone.
			s.deadlineExpired(w, req, " mid-batch")
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
	answered := 0
	for i, state := range sc.states {
		if i > 0 {
			b = append(b, ',')
		}
		switch state {
		case itemQueried:
			ans := &sc.answers[answered]
			answered++
			rec, kind := s.classify(ans.Rec, ans.Found, ans.Err)
			b = appendLookupResult(b, sc.addrs[i], rec, kind)
		case itemInjected:
			b = appendLookupResult(b, sc.addrs[i], dataset.Record{}, resolveInjected)
		case itemBadAddr:
			// Parsed a second time, for the error text the first pass had
			// nowhere to keep.
			raw := body[sc.spans[i].lo:sc.spans[i].hi]
			_, err := ipaddr.ParseBytes(raw)
			b = appendErrorResult(b, string(raw), err.Error())
		}
	}
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
