// Admission control: what keeps geoserve answering fast under overload
// instead of collapsing under it.
//
// The model is a bounded system: at most MaxInflight requests execute
// concurrently, at most MaxQueue more wait for a slot (bounded by
// QueueTimeout), and everything beyond that is shed immediately with
// 429 + Retry-After — a clean, cheap answer the client can act on,
// instead of an unbounded goroutine pile-up that takes every request
// down with it. Orthogonally, RequestTimeout is a deadline on the request
// context, and every wait the server imposes — the admission queue and an
// injected stall, on /lookup and inside the batch loop — selects on that
// context and answers 504 through deadlineExpired when it dies. The
// handler runs on the connection's goroutine against the real
// ResponseWriter: a wait the server does not impose (reading the request,
// writing the response) is bounded by http.Server's Read/WriteTimeout,
// which is also what bounds the goroutine holding the slot. Control-plane
// endpoints (/healthz, /readyz, /version, /metrics, /admin/*) bypass
// both: an operator must be able to observe and steer an overloaded
// server.
package serve

import (
	"context"
	"net/http"
	"strconv"
	"time"
)

// serveData wraps a data-plane handler in the deadline and admission
// control. The slot is released by defer, so it comes back on every exit
// from h, a panic (which net/http recovers) included.
func (s *Server) serveData(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if s.sem != nil {
			if !s.admit(w, r) {
				return
			}
			defer func() { <-s.sem }()
			if r.Context().Err() != nil {
				// The deadline fired as the slot came free; this request's
				// budget is gone.
				s.deadlineExpired(w, r, " before execution")
				return
			}
		}
		h(w, r)
	}
}

// admit takes an inflight slot for r, waiting in the bounded queue when
// none is free. It reports false after answering the request itself: 429
// when the queue is full or QueueTimeout passes, 504 when the request's
// context dies while it waits.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	select {
	case s.sem <- struct{}{}: // free slot, no queueing
		return true
	default:
	}
	m := metaFrom(r.Context())
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.shed(w, m)
		return false
	}
	wait := time.Now()
	span := s.stageSpan(m, "admission-wait")
	t := time.NewTimer(s.cfg.QueueTimeout)
	leave := func() {
		t.Stop()
		s.queued.Add(-1)
		span.End()
		m.setQueueWait(time.Since(wait))
	}
	select {
	case s.sem <- struct{}{}:
		leave()
		return true
	case <-t.C:
		leave()
		s.shed(w, m)
	case <-r.Context().Done():
		leave()
		s.deadlineExpired(w, r, " while queued for admission")
	}
	return false
}

// deadlineExpired is the data plane's one deadline answer: the only code
// that names the cause, moves geoserve.deadline_expired and writes the
// 504, so the counter, the ledger's 504s, the access log's
// cause="deadline" records and the 504s clients read are the same number.
// where names the wait the context died in. A request whose client hung
// up, or an attempt the router gave up on, ends here too — to the
// server both are a context that died during a wait.
func (s *Server) deadlineExpired(w http.ResponseWriter, r *http.Request, where string) {
	metaFrom(r.Context()).setCause("deadline")
	s.expired.Inc()
	s.writeJSON(w, http.StatusGatewayTimeout, errorBody{"request deadline expired" + where})
}

// shed answers one load-shed request: 429, a jittered Retry-After hint
// (retryafter.go — a constant hint would synchronize the shed clients
// into a retry storm), and the shed counter — the overload contract
// geobench asserts on.
func (s *Server) shed(w http.ResponseWriter, m *reqMeta) {
	m.setCause("shed")
	s.sheds.Inc()
	secs := RetryAfterSecs(s.cfg.RetryAfter, s.jitterSeed(), s.shedSeq.Add(1))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.writeJSON(w, http.StatusTooManyRequests, errorBody{"server overloaded, retry after backoff"})
}

// jitterSeed keys the Retry-After jitter draws: the published artifact's
// campaign seed when one exists (so a deterministic run jitters
// deterministically), 0 before the first Publish.
func (s *Server) jitterSeed() uint64 {
	if a := s.Current(); a != nil {
		return a.Hdr.Seed
	}
	return 0
}

// Sleep sleeps for d or until the context dies, reporting whether the
// full sleep completed. Fault-injected stalls route through it so a
// stalled request both honours its deadline and frees its admission slot
// promptly.
func Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
