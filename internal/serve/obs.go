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

// reqMeta is the per-request observability record, created by observe
// inside the request's writer (reqWriter) and annotated by admission and
// the handlers through metaOf. Everything that touches it runs on the
// request's own goroutine, so it needs no lock.
type reqMeta struct {
	id      string
	adopted bool
	traced  bool
	start   time.Time

	queueWait time.Duration
	cause     string

	// deadline bounds every wait the server imposes on a data-plane
	// request (zero: no deadline). wait is the context carrying it, built
	// by the first wait (waitCtx) and cancelled by serveData, so a request
	// that never waits arms no timer and registers nothing with its
	// parent context.
	deadline time.Time
	wait     context.Context
	cancel   context.CancelFunc
}

// reqWriter is the writer observe hands down the chain: the status writer
// and the request record in one allocation.
type reqWriter struct {
	obs.StatusWriter
	meta reqMeta
}

// metaOf returns the request record riding in w (nil when w did not come
// from observe or serveData).
func metaOf(w http.ResponseWriter) *reqMeta {
	if rw, ok := w.(*reqWriter); ok {
		return &rw.meta
	}
	return nil
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

// waitCtx returns the context a server-imposed wait selects on: r's own,
// bounded by the request deadline. The first call builds it. Nil-safe: a
// handler driven without serveData waits on r's context alone.
func (m *reqMeta) waitCtx(r *http.Request) context.Context {
	if m == nil || m.deadline.IsZero() {
		return r.Context()
	}
	if m.wait == nil {
		m.wait, m.cancel = context.WithDeadline(r.Context(), m.deadline)
	}
	return m.wait
}

// waitErr is the request's context error once it has waited: the wait
// context's when one was built, r's own otherwise — a request that never
// waited cannot have outlived its deadline.
func (m *reqMeta) waitErr(r *http.Request) error {
	if m.wait != nil {
		return m.wait.Err()
	}
	return r.Context().Err()
}

// endWait releases the wait context, if the request built one.
func (m *reqMeta) endWait() {
	if m.cancel != nil {
		m.cancel()
	}
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
		rw := &reqWriter{StatusWriter: obs.StatusWriter{ResponseWriter: w}}
		m := &rw.meta
		m.start = time.Now()
		// Set before anything runs: every response — a shed or a deadline
		// answer included — carries the ID.
		ids, adopted := obs.EchoRequestID(w.Header(), r)
		m.id, m.adopted, m.traced = ids[0], adopted, s.sampleTrace()

		span := s.stageSpan(m, "request")
		next.ServeHTTP(rw, r)
		span.End()

		status := rw.Status()
		plane := obs.PlaneOf(r.URL.Path)
		s.status.Counter(status, plane).Inc()

		latencyMs := float64(time.Since(m.start)) / float64(time.Millisecond)
		if plane == obs.PlaneData && status != http.StatusTooManyRequests {
			// Timed from entry, so admission wait counts. Sheds stay out: a
			// 429 is the designed overload answer, not a slow one, and its
			// sub-millisecond latency would dilute the tail the latency
			// budget is computed from.
			s.latencyMs.Observe(latencyMs)
		}
		s.accessLog(r, m, status, plane, latencyMs)
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
		slog.Uint64("generation", s.generation()),
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
