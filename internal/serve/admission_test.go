package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geoloc/internal/faults"
	"geoloc/internal/obs"
)

// progress is poked by the test servers' hooks each time a request may
// have changed what a test waits for — a request entered a stall (so holds
// its inflight slot), joined the admission queue, or had its handler chain
// return — so that waitUntil re-checks on events, not on a clock.
var progress = make(chan struct{}, 1)

func poke() {
	select {
	case progress <- struct{}{}:
	default: // a poke is already pending; one re-check sees both
	}
}

// blockingServer builds a published server whose fault-injected stall
// blocks until release is closed (or the request context dies). With
// ServeStallProb 1 every data-plane request parks in the stall, which
// gives the tests a deterministic way to fill the inflight slots. Entering
// the stall and joining the admission queue both poke progress.
func blockingServer(cfg Config) (*Server, chan struct{}) {
	cfg.Prof = &faults.Profile{Name: "block", ServeStallProb: 1, ServeStallMaxMs: 1}
	srv := newPublished(cfg)
	release := make(chan struct{})
	srv.sleep = func(ctx context.Context, _ time.Duration) bool {
		poke()
		select {
		case <-release:
			return true
		case <-ctx.Done():
			return false
		}
	}
	srv.queueTimer = func(d time.Duration) *time.Timer {
		defer poke()
		return time.NewTimer(d)
	}
	return srv, release
}

// pinnedServer is blockingServer with a stall that ignores the request
// context: whoever is in it holds its inflight slot until release closes,
// deadline or not. That pins the slot while another request's budget runs
// out in the queue behind it.
func pinnedServer(cfg Config) (*Server, chan struct{}) {
	srv, release := blockingServer(cfg)
	srv.sleep = func(context.Context, time.Duration) bool {
		poke()
		<-release
		return true
	}
	return srv, release
}

// poking wraps h so that every request's return from it pokes progress:
// the event behind a counter that moves after an answer, or an answer no
// client is left to read.
func poking(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer poke()
		h.ServeHTTP(w, r)
	})
}

// waitUntil blocks until cond holds, re-checking it each time progress is
// poked. The timer only bounds a test that would otherwise hang.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	limit := time.NewTimer(5 * time.Second)
	defer limit.Stop()
	for !cond() {
		select {
		case <-progress:
		case <-limit.C:
			t.Fatalf("timeout waiting for %s", what)
		}
	}
}

// TestAdmissionStatusCodes is the table-driven contract of the shed and
// deadline middleware: every overload and timeout path answers the
// designed status code, never a connection drop or a 5xx surprise.
func TestAdmissionStatusCodes(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) (status int, header http.Header, body string)
		want int
		// wantRetryAfter asserts the Retry-After header is present.
		wantRetryAfter bool
		contains       string
	}{
		{
			name: "normal request admitted",
			run: func(t *testing.T) (int, http.Header, string) {
				srv := newPublished(Config{MaxInflight: 2, MaxQueue: 2})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				status, body := get(t, ts.URL+"/lookup?ip=10.0.0.7")
				return status, nil, body
			},
			want: http.StatusOK,
		},
		{
			name: "queue full sheds 429 with Retry-After",
			run: func(t *testing.T) (int, http.Header, string) {
				srv, release := blockingServer(Config{
					MaxInflight: 1, MaxQueue: 1,
					QueueTimeout: 5 * time.Second, RequestTimeout: 30 * time.Second,
					RetryAfter: 2 * time.Second,
				})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()

				// Fill the single inflight slot, then the single queue slot.
				inflight := startLookup(ts.URL)
				waitInflight(t, srv, 1)
				queued := startLookup(ts.URL)
				waitQueued(t, srv, 1)

				resp, err := http.Get(ts.URL + "/lookup?ip=10.0.0.7")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				close(release)
				drainLookup(inflight, queued)
				return resp.StatusCode, resp.Header, string(b)
			},
			want:           http.StatusTooManyRequests,
			wantRetryAfter: true,
			contains:       "overloaded",
		},
		{
			name: "queue timeout sheds 429",
			run: func(t *testing.T) (int, http.Header, string) {
				srv, release := blockingServer(Config{
					MaxInflight: 1, MaxQueue: 8,
					QueueTimeout: 30 * time.Millisecond, RequestTimeout: 30 * time.Second,
				})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()

				inflight := startLookup(ts.URL)
				waitInflight(t, srv, 1)
				resp, err := http.Get(ts.URL + "/lookup?ip=10.0.0.7")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				close(release)
				drainLookup(inflight)
				return resp.StatusCode, resp.Header, string(b)
			},
			want:           http.StatusTooManyRequests,
			wantRetryAfter: true,
		},
		{
			name: "deadline expiry answers 504",
			run: func(t *testing.T) (int, http.Header, string) {
				srv, release := blockingServer(Config{RequestTimeout: 40 * time.Millisecond})
				defer close(release)
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				status, body := get(t, ts.URL+"/lookup?ip=10.0.0.7")
				return status, nil, body
			},
			want:     http.StatusGatewayTimeout,
			contains: "deadline",
		},
		{
			name: "deadline expiry mid-queue answers 504",
			run: func(t *testing.T) (int, http.Header, string) {
				// The holder must outlive the waiter's deadline, or the
				// waiter gets the slot and times out in the stall instead.
				srv, release := pinnedServer(Config{
					MaxInflight: 1, MaxQueue: 8,
					QueueTimeout: 30 * time.Second, RequestTimeout: 40 * time.Millisecond,
				})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()

				inflight := startLookup(ts.URL)
				waitInflight(t, srv, 1)
				status, body := get(t, ts.URL+"/lookup?ip=10.0.0.7")
				close(release)
				drainLookup(inflight)
				return status, nil, body
			},
			want:     http.StatusGatewayTimeout,
			contains: "deadline expired while queued",
		},
		{
			name: "control plane bypasses a saturated data plane",
			run: func(t *testing.T) (int, http.Header, string) {
				srv, release := blockingServer(Config{
					MaxInflight: 1, MaxQueue: 1,
					QueueTimeout: 30 * time.Second, RequestTimeout: 30 * time.Second,
				})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()

				inflight := startLookup(ts.URL)
				waitInflight(t, srv, 1)
				queued := startLookup(ts.URL)
				waitQueued(t, srv, 1)
				status, body := get(t, ts.URL+"/readyz")
				close(release)
				drainLookup(inflight, queued)
				return status, nil, body
			},
			want:     http.StatusOK,
			contains: "ready",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, hdr, body := c.run(t)
			if status != c.want {
				t.Fatalf("status = %d, want %d (body %s)", status, c.want, body)
			}
			if c.wantRetryAfter && (hdr == nil || hdr.Get("Retry-After") == "") {
				t.Errorf("429 missing Retry-After header")
			}
			if c.contains != "" && !strings.Contains(body, c.contains) {
				t.Errorf("body missing %q: %s", c.contains, body)
			}
		})
	}
}

// startLookup fires a /lookup in the background and returns a channel
// carrying its final status code (0 on transport error).
func startLookup(base string) chan int {
	ch := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/lookup?ip=10.0.0.7")
		if err != nil {
			ch <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ch <- resp.StatusCode
	}()
	return ch
}

// waitInflight spins until n requests occupy inflight slots.
func waitInflight(t *testing.T, srv *Server, n int) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%d inflight", n), func() bool { return len(srv.sem) >= n })
}

// waitQueued spins until n requests wait in the admission queue.
func waitQueued(t *testing.T, srv *Server, n int) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%d queued", n), func() bool { return srv.queued.Load() >= int64(n) })
}

// drainLookup waits for background lookups to finish (their statuses are
// irrelevant once the assertion under test has run).
func drainLookup(chans ...chan int) {
	for _, ch := range chans {
		<-ch
	}
}

// TestShedCountsTelemetry checks the shed and deadline counters feed the
// ledger the load-smoke job asserts on.
func TestShedCountsTelemetry(t *testing.T) {
	srv, release := blockingServer(Config{
		MaxInflight: 1, MaxQueue: 1,
		QueueTimeout: 10 * time.Second, RequestTimeout: 10 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	inflight := startLookup(ts.URL)
	waitInflight(t, srv, 1)
	queued := startLookup(ts.URL)
	waitQueued(t, srv, 1)
	if status, _ := get(t, ts.URL+"/lookup?ip=10.0.0.7"); status != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", status)
	}
	close(release)
	drainLookup(inflight, queued)

	if got := srv.sheds.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	if got := srv.status.Counter(429, obs.PlaneData).Value(); got != 1 {
		t.Errorf("status ledger 429 = %d, want 1", got)
	}
}

// TestDeadlineCountsOnce: every way a request runs out of budget — in the
// admission queue, as its slot comes free, in an injected stall, in the
// middle of a batch — is one 504 whose body names the wait, one
// geoserve.deadline_expired, one 504 in the status ledger and one
// access-log record with cause="deadline".
func TestDeadlineCountsOnce(t *testing.T) {
	lookup := httptest.NewRequest(http.MethodGet, "/lookup?ip=10.0.0.7", nil)
	cases := []struct {
		name string
		cfg  Config
		// run starts a server from cfg and returns the answer to the one
		// request that must expire.
		run  func(t *testing.T, cfg Config) (*Server, int, string)
		body string
	}{
		{
			name: "queued",
			cfg: Config{MaxInflight: 1, MaxQueue: 8,
				QueueTimeout: 30 * time.Second, RequestTimeout: 40 * time.Millisecond},
			run: func(t *testing.T, cfg Config) (*Server, int, string) {
				srv, release := pinnedServer(cfg)
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				holder := startLookup(ts.URL)
				waitInflight(t, srv, 1)
				status, body := get(t, ts.URL+"/lookup?ip=10.0.0.7")
				close(release)
				if got := <-holder; got != http.StatusOK {
					t.Errorf("holder answered %d, want 200", got)
				}
				return srv, status, body
			},
			body: "request deadline expired while queued for admission",
		},
		{
			name: "as the slot came free",
			cfg:  Config{MaxInflight: 1},
			run: func(t *testing.T, cfg Config) (*Server, int, string) {
				srv := newPublished(cfg)
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, lookup.WithContext(ctx))
				return srv, rec.Code, rec.Body.String()
			},
			body: "request deadline expired before execution",
		},
		{
			name: "stalled",
			cfg:  Config{RequestTimeout: 40 * time.Millisecond},
			run: func(t *testing.T, cfg Config) (*Server, int, string) {
				srv, release := blockingServer(cfg)
				defer close(release)
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, lookup)
				return srv, rec.Code, rec.Body.String()
			},
			body: "request deadline expired",
		},
		{
			name: "mid-batch",
			run: func(t *testing.T, cfg Config) (*Server, int, string) {
				srv, _ := blockingServer(cfg)
				stalls := 0
				srv.sleep = func(context.Context, time.Duration) bool {
					stalls++
					return stalls < 2 // the budget runs out on the second address
				}
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch",
					strings.NewReader(`{"ips":["10.0.0.7","10.0.5.1","10.0.2.9"]}`)))
				// Faults are applied to every address before the batch's one
				// FindBatch, so the address that stalled through was not
				// looked up either.
				if n := srv.hits.Value() + srv.misses.Value(); n != 0 {
					t.Errorf("expired batch counted %d hits+misses, want 0", n)
				}
				return srv, rec.Code, rec.Body.String()
			},
			body: "request deadline expired mid-batch",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var logBuf bytes.Buffer
			c.cfg.AccessLog = slog.New(slog.NewJSONHandler(&logBuf, nil))
			srv, status, body := c.run(t, c.cfg)
			if want := `{"error":"` + c.body + `"}` + "\n"; status != http.StatusGatewayTimeout || body != want {
				t.Errorf("answer = %d %q, want 504 %q", status, body, want)
			}
			if got := srv.expired.Value(); got != 1 {
				t.Errorf("geoserve.deadline_expired = %d, want 1", got)
			}
			if got := srv.status.Counter(http.StatusGatewayTimeout, obs.PlaneData).Value(); got != 1 {
				t.Errorf("status ledger 504 = %d, want 1", got)
			}
			logged := 0
			for _, rec := range decodeAccessLog(t, &logBuf) {
				if rec.Status == http.StatusGatewayTimeout && rec.Cause == "deadline" {
					logged++
				}
			}
			if logged != 1 {
				t.Errorf("%d access-log records with status 504 and cause=deadline, want 1:\n%s", logged, logBuf.String())
			}
		})
	}
}

// TestDeadlineWithoutObserve: serveData keeps the request deadline when
// no observe wrapper built the request record — an injected stall on a
// data-plane handler driven bare still answers the RequestTimeout 504.
func TestDeadlineWithoutObserve(t *testing.T) {
	srv, _ := blockingServer(Config{RequestTimeout: 40 * time.Millisecond})
	srv.sleep = func(ctx context.Context, _ time.Duration) bool {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(5 * time.Second): // no deadline reached the stall
			return true
		}
	}
	rec := httptest.NewRecorder()
	srv.serveData(srv.handleLookup)(rec, httptest.NewRequest(http.MethodGet, "/lookup?ip=10.0.0.7", nil))
	if want := `{"error":"request deadline expired"}` + "\n"; rec.Code != http.StatusGatewayTimeout || rec.Body.String() != want {
		t.Errorf("answer = %d %q, want 504 %q", rec.Code, rec.Body.String(), want)
	}
	if got := srv.expired.Value(); got != 1 {
		t.Errorf("geoserve.deadline_expired = %d, want 1", got)
	}
}

// TestPanicReleasesSlot: a handler that panics is recovered by net/http,
// which drops the connection; the admission slot it held comes back and
// the next request is served.
func TestPanicReleasesSlot(t *testing.T) {
	srv, _ := blockingServer(Config{MaxInflight: 1, MaxQueue: 1})
	var armed atomic.Bool
	armed.Store(true)
	srv.sleep = func(context.Context, time.Duration) bool {
		if armed.CompareAndSwap(true, false) {
			panic("injected handler panic")
		}
		return true
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the recovered panic's stack trace
	ts.Start()
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/lookup?ip=10.0.0.7"); err == nil {
		resp.Body.Close()
		t.Fatalf("panicking handler answered %d, want a dropped connection", resp.StatusCode)
	}
	if n := len(srv.sem); n != 0 {
		t.Fatalf("%d admission slots still held after the panic", n)
	}
	if status, body := get(t, ts.URL+"/lookup?ip=10.0.0.7"); status != http.StatusOK {
		t.Fatalf("request after the panic = %d %s, want 200", status, body)
	}
}

// TestDisconnectWhileQueued: a client that hangs up while waiting for a
// slot leaves the queue at once and is counted once, as a deadline expiry.
func TestDisconnectWhileQueued(t *testing.T) {
	srv, release := blockingServer(Config{
		MaxInflight: 1, MaxQueue: 8,
		QueueTimeout: 30 * time.Second, RequestTimeout: 30 * time.Second,
	})
	ts := httptest.NewServer(poking(srv.Handler()))
	defer ts.Close()

	holder := startLookup(ts.URL)
	waitInflight(t, srv, 1)
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/lookup?ip=10.0.0.7", nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitQueued(t, srv, 1)
	cancel()
	<-gone

	ledger504 := srv.status.Counter(http.StatusGatewayTimeout, obs.PlaneData)
	waitUntil(t, "the hung-up request to be answered", func() bool { return ledger504.Value() == 1 })
	if n := srv.queued.Load(); n != 0 {
		t.Errorf("queue length = %d after the client hung up, want 0", n)
	}
	if got := srv.expired.Value(); got != 1 {
		t.Errorf("geoserve.deadline_expired = %d, want 1", got)
	}
	close(release)
	if got := <-holder; got != http.StatusOK {
		t.Errorf("holder answered %d, want 200", got)
	}
	if got := ledger504.Value(); got != 1 {
		t.Errorf("status ledger 504 = %d after the holder finished, want 1", got)
	}
}

// TestDrainCompletesInFlight proves the graceful-shutdown sequence on a
// real listener: an in-flight request blocked in a stall completes with
// 200 after drain + Shutdown begin, while new connections are refused
// the moment the listener closes.
func TestDrainCompletesInFlight(t *testing.T) {
	srv, release := blockingServer(Config{RequestTimeout: 30 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	listenerClosed := make(chan struct{})
	httpSrv.RegisterOnShutdown(func() { close(listenerClosed) })
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// The listener is bound before Serve runs, so a request sent now waits
	// in its backlog rather than being refused. Park one in-flight.
	inflight := startLookup(base)
	waitInflight(t, srv, 1)

	// Begin the drain sequence: readiness flips first...
	srv.StartDrain()
	if status, _ := get(t, base+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", status)
	}

	// ...then the listener closes. Shutdown blocks on the in-flight
	// request, so run it in the background.
	shutdownDone := make(chan error, 1)
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownDone <- httpSrv.Shutdown(shCtx) }()

	// New connections must be refused once the listener is closed:
	// Shutdown starts its OnShutdown hooks right after closing it.
	<-listenerClosed
	if c, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		c.Close()
		t.Fatal("listener still accepting connections after Shutdown started")
	}

	// The in-flight request is still alive; release it and it completes.
	close(release)
	if status := <-inflight; status != http.StatusOK {
		t.Fatalf("in-flight request during drain = %d, want 200", status)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown did not complete: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestCtxSleep pins the helper: full sleep on a live context, early
// abort on a dead one.
func TestCtxSleep(t *testing.T) {
	if !Sleep(context.Background(), 0) {
		t.Error("zero sleep should complete")
	}
	if !Sleep(context.Background(), time.Microsecond) {
		t.Error("short sleep should complete")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if Sleep(ctx, 10*time.Second) {
		t.Error("sleep on dead context should abort")
	}
	if time.Since(start) > time.Second {
		t.Error("aborted sleep took too long")
	}
}

// TestAdmissionDisabled pins the negative-MaxInflight escape hatch.
func TestAdmissionDisabled(t *testing.T) {
	srv := newPublished(Config{MaxInflight: -1})
	if srv.sem != nil {
		t.Fatal("negative MaxInflight must disable the semaphore")
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/lookup?ip=10.0.0.7", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
}

// TestConcurrentShedding hammers a tightly limited server and checks the
// sum of the ledger equals the requests sent: every request got exactly
// one designed answer (200/404/429/504), nothing dropped.
func TestConcurrentShedding(t *testing.T) {
	srv := newPublished(Config{
		Prof:        &faults.Profile{Name: "stall", ServeStallProb: 1, ServeStallMaxMs: 2},
		MaxInflight: 2, MaxQueue: 2,
		QueueTimeout:   5 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		RetryAfter:     time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const workers, perWorker = 16, 25
	var wg sync.WaitGroup
	statuses := make(chan int, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; i < perWorker; i++ {
				resp, err := client.Get(ts.URL + fmt.Sprintf("/lookup?ip=10.0.%d.%d", i%8, w))
				if err != nil {
					statuses <- 0
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				statuses <- resp.StatusCode
			}
		}(w)
	}
	wg.Wait()
	close(statuses)

	counts := map[int]int{}
	for s := range statuses {
		counts[s]++
	}
	if counts[0] != 0 {
		t.Fatalf("%d transport errors: every overloaded request must still get an answer", counts[0])
	}
	for s := range counts {
		switch s {
		case 200, 404, 429, 504:
		default:
			t.Errorf("unexpected status %d (%d times)", s, counts[s])
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != workers*perWorker {
		t.Errorf("answered %d of %d requests", total, workers*perWorker)
	}
}
