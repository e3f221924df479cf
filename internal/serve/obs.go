// The serving tier's observability plane (DESIGN.md §3.7): request
// identity, structured access logs, stage spans and Prometheus
// exposition.
//
// One middleware (observe) wraps the whole routing table. It assigns
// every request an ID (adopted from X-Request-Id or a W3C traceparent
// when the caller sent one), echoes it in the response header before any
// handler runs — so a 429 or 504 written by admission carries it — and,
// when the request finishes, feeds one record each to the status ledger
// (obs.Ledger, the implementation the router counts in too), the latency
// histogram, and (sampled) the access log. The ID is the join key: a client
// error report names it, exactly one access log line carries it, and its
// trace spans embed it.
//
// GET /metrics renders the server's registry in Prometheus text format
// from the control plane, outside admission — scraping an overloaded or
// draining server must always work, that is when the numbers matter. The
// ledger and the histogram are all an error-budget rule needs: the
// README's alert rules are PromQL over them, evaluated where they are
// scraped.
package serve

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"geoloc/internal/obs"
	"geoloc/internal/telemetry"
)

// ctxKey is the private context-key namespace.
type ctxKey int

const metaKey ctxKey = iota

// reqMeta is the per-request observability record, created by observe
// and annotated by admission and the handlers. Everything that touches it
// runs on the request's own goroutine, so it needs no lock.
type reqMeta struct {
	id      string
	adopted bool
	traced  bool

	queueWait time.Duration
	cause     string
}

// setQueueWait records how long the request waited for an admission
// slot. Nil-safe (handlers can be driven without the observe wrapper in
// tests).
func (m *reqMeta) setQueueWait(d time.Duration) {
	if m != nil {
		m.queueWait = d
	}
}

// setCause records why a request failed ("shed", "deadline"). Nil-safe
// like setQueueWait.
func (m *reqMeta) setCause(c string) {
	if m != nil {
		m.cause = c
	}
}

// metaFrom returns the request's observability record (nil when the
// request did not pass through observe).
func metaFrom(ctx context.Context) *reqMeta {
	m, _ := ctx.Value(metaKey).(*reqMeta)
	return m
}

// stageSpan starts a span for one request stage, named with the request
// ID so the Chrome-trace export joins back to the access log. Returns
// nil (a free no-op) unless the request was trace-sampled.
func (s *Server) stageSpan(m *reqMeta, stage string) *telemetry.Span {
	if m == nil || !m.traced {
		return nil
	}
	return s.statusReg.StartSpan(telemetry.Name(stage, telemetry.Label{Key: "req", Value: m.id}))
}

// observe is the outermost middleware: request identity, the per-status
// ledger, the latency histogram, and the sampled access log.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id, adopted := obs.RequestID(r)
		// Set before anything runs: every response — a shed or a deadline
		// answer included — carries the ID.
		w.Header().Set(obs.RequestIDHeader, id)
		meta := &reqMeta{id: id, adopted: adopted, traced: s.sampleTrace()}
		r = r.WithContext(context.WithValue(r.Context(), metaKey, meta))

		span := s.stageSpan(meta, "request")
		sw := &obs.StatusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		span.End()

		status := sw.Status()
		plane := obs.PlaneOf(r.URL.Path)
		s.status.Counter(status, plane).Inc()

		latencyMs := float64(time.Since(start)) / float64(time.Millisecond)
		if plane == obs.PlaneData && status != http.StatusTooManyRequests {
			// Timed from entry, so admission wait counts. Sheds stay out: a
			// 429 is the designed overload answer, not a slow one, and its
			// sub-millisecond latency would dilute the tail the latency
			// budget is computed from.
			s.latencyMs.Observe(latencyMs)
		}
		s.accessLog(r, meta, status, plane, latencyMs)
	})
}

// sampleTrace decides whether the next request records stage spans
// (1-in-TraceSample; 0 disables tracing). Spans accumulate in the
// registry for the life of the process, so tracing is an explicit,
// sampled opt-in for diagnosis sessions, not an always-on default.
func (s *Server) sampleTrace() bool {
	n := s.cfg.TraceSample
	return n > 0 && s.traceSeq.Add(1)%uint64(n) == 0
}

// accessLog emits the request's structured log record: always for
// non-2xx answers (the contract is that every client-visible failure
// appears in exactly one log line, joinable by request ID), 1-in-
// LogSample for successes.
func (s *Server) accessLog(r *http.Request, m *reqMeta, status int, plane obs.Plane, latencyMs float64) {
	lg := s.cfg.AccessLog
	if lg == nil {
		return
	}
	level := slog.LevelInfo
	switch {
	case status >= 500:
		level = slog.LevelWarn
	case status >= 400:
		level = slog.LevelInfo
	default:
		if s.cfg.LogSample <= 0 || s.logSeq.Add(1)%uint64(s.cfg.LogSample) != 0 {
			return
		}
	}
	attrs := []slog.Attr{
		slog.String("id", m.id),
		slog.Bool("id_adopted", m.adopted),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("plane", plane.String()),
		slog.Int("status", status),
		slog.Uint64("generation", s.swapper.Generation()),
		slog.Float64("queue_wait_ms", float64(m.queueWait)/float64(time.Millisecond)),
		slog.Float64("latency_ms", latencyMs),
	}
	if m.cause != "" {
		attrs = append(attrs, slog.String("cause", m.cause))
	}
	lg.LogAttrs(context.Background(), level, "request", attrs...)
}

// handleMetrics serves GET /metrics: the whole registry in Prometheus
// text format. Control plane — never queued, never shed, no deadline.
func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{"use GET"})
		return
	}
	w.Header().Set("Content-Type", telemetry.ContentType)
	if err := s.statusReg.WritePrometheus(w); err != nil {
		s.writeErrs.Inc()
	}
}
