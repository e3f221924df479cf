package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geoloc/internal/ipaddr"
	"geoloc/internal/obs"
	"geoloc/internal/serve"
	"geoloc/internal/telemetry"
)

// nopWriter is an http.ResponseWriter that costs nothing: the header map
// is reused and the body dropped, so AllocsPerRun prices the router.
type nopWriter struct {
	h      http.Header
	status int
}

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopWriter) WriteHeader(status int)      { w.status = status }

// idleConns is replica i's pool depth.
func idleConns(rt *Router, i int) int {
	u := rt.ups[i]
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.idle)
}

// serveDirect runs one request through rt's handler on this goroutine.
func serveDirect(rt *Router, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// newRawRouter is a router (no probes) over the given base URLs.
func newRawRouter(t *testing.T, cfg Config, urls ...string) *Router {
	t.Helper()
	cfg.ReplicaURLs = urls
	rt, err := New(cfg, telemetry.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestOversizedReplicaBodyFails pins the satellite fix: a replica body one
// byte past maxUpstreamBody — framed by Content-Length or chunked — is a
// failed attempt that fails over, never a truncated 200.
func TestOversizedReplicaBodyFails(t *testing.T) {
	big := bytes.Repeat([]byte{'x'}, maxUpstreamBody+1)
	for _, framing := range []string{"content-length", "chunked"} {
		t.Run(framing, func(t *testing.T) {
			over := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				if framing == "chunked" {
					w.(http.Flusher).Flush() // headers out without a length: the body is chunked
				} else {
					w.Header().Set("Content-Length", strconv.Itoa(len(big)))
				}
				w.Write(big)
			}))
			t.Cleanup(over.Close)
			good := newFakeReplica(t, 1)

			rt := newRawRouter(t, Config{}, over.URL, good.ts.URL)
			for _, c := range []struct{ method, target, body string }{
				{http.MethodGet, "/lookup?ip=" + addrInRange(2, 0), ""},
				{http.MethodPost, "/batch", `{"ips":["10.0.0.1"]}`}, // dealt to replica 0 first
			} {
				rec := serveDirect(rt, c.method, c.target, c.body)
				if rec.Code != http.StatusOK || rec.Header().Get("X-Router-Replica") != "1" || rec.Header().Get("X-Router-Failovers") != "1" {
					t.Errorf("%s %s: %d via %q with failovers %q, want 200 via 1 with failovers 1",
						c.method, c.target, rec.Code, rec.Header().Get("X-Router-Replica"), rec.Header().Get("X-Router-Failovers"))
				}
				if rec.Body.Len() > 4096 {
					t.Errorf("%s %s: %d-byte body proxied, want the good replica's answer", c.method, c.target, rec.Body.Len())
				}
			}
			if _, cf, _, _ := rt.health[0].snapshot(); cf == 0 {
				t.Error("the oversized answers were not scored")
			}

			alone := newRawRouter(t, Config{}, over.URL)
			if rec := serveDirect(alone, http.MethodGet, "/lookup?ip=10.0.0.1", ""); rec.Code != http.StatusServiceUnavailable {
				t.Errorf("only replica oversized: %d, want 503", rec.Code)
			}
		})
	}
}

// TestStaleConnRetriedNotScored: a replica restarted between two lookups
// leaves a dead connection in the pool. The second lookup is answered by
// the same replica with no failover, and the replica is not scored.
func TestStaleConnRetriedNotScored(t *testing.T) {
	fleet, err := NewLocalFleet(2, fleetTinyDataset(), "test:tiny", serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	rt := newRawRouter(t, Config{}, fleet.Addrs()...)
	hot := rt.Ranges().ReplicaFor(ipaddr.MustParse(hotIP()))
	lookup := func(what string) {
		t.Helper()
		rec := serveDirect(rt, http.MethodGet, "/lookup?ip="+hotIP(), "")
		if rec.Code != http.StatusOK || rec.Header().Get("X-Router-Replica") != strconv.Itoa(hot) ||
			rec.Header().Get("X-Router-Failovers") != "" {
			t.Fatalf("%s: %d via %q, failovers %q; want 200 via %d, none", what, rec.Code,
				rec.Header().Get("X-Router-Replica"), rec.Header().Get("X-Router-Failovers"), hot)
		}
	}
	lookup("first lookup")
	if n := idleConns(rt, hot); n != 1 {
		t.Fatalf("%d idle conns after one lookup, want 1", n)
	}
	if err := fleet.StopReplica(hot); err != nil {
		t.Fatal(err)
	}
	if err := fleet.StartReplica(hot); err != nil {
		t.Fatal(err)
	}
	lookup("lookup after restart")
	if _, cf, downs, _ := rt.health[hot].snapshot(); cf != 0 || downs != 0 {
		t.Errorf("consec_fails %d, downs %d after a stale pooled conn, want 0 and 0", cf, downs)
	}
}

// TestConnectionCloseNeverPooled: an answer carrying Connection: close
// leaves nothing in the pool; an ordinary one leaves its connection.
func TestConnectionCloseNeverPooled(t *testing.T) {
	var closing atomic.Bool
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if closing.Load() {
			w.Header().Set("Connection", "close")
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{}\n")
	}))
	t.Cleanup(up.Close)
	rt := newRawRouter(t, Config{}, up.URL)
	for i, close := range []bool{true, true, false, true} {
		closing.Store(close)
		if rec := serveDirect(rt, http.MethodGet, "/lookup?ip=10.0.0.1", ""); rec.Code != http.StatusOK || rec.Body.String() != "{}\n" {
			t.Fatalf("lookup %d: %d %q", i, rec.Code, rec.Body.String())
		}
		want := 1
		if close {
			want = 0
		}
		if n := idleConns(rt, 0); n != want {
			t.Errorf("lookup %d (Connection: close %v): %d idle conns, want %d", i, close, n, want)
		}
	}
}

// TestIdlePoolCapped: 80 exchanges in flight at once need 80 connections;
// when they finish, 64 stay pooled and the rest are closed.
func TestIdlePoolCapped(t *testing.T) {
	const inflight = 80
	var arrived atomic.Int64
	all := make(chan struct{})
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if arrived.Add(1) == inflight {
			close(all)
		}
		<-all
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{}\n")
	}))
	t.Cleanup(up.Close)
	rt := newRawRouter(t, Config{}, up.URL)
	h := rt.Handler()
	var wg sync.WaitGroup
	codes := make([]int, inflight)
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/lookup?ip=10.0.0.1", nil))
			codes[i] = rec.Code
		}()
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: %d", i, c)
		}
	}
	if n := idleConns(rt, 0); n != maxIdleConns {
		t.Errorf("%d idle conns after %d concurrent exchanges, want the cap %d", n, inflight, maxIdleConns)
	}
}

// TestUnsafeBytesNeverReachWire: a target or request ID carrying CR, LF,
// space or DEL is refused before a connection is even dialed, and the
// refusal scores nothing; a base URL the client cannot speak is refused by
// New.
func TestUnsafeBytesNeverReachWire(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			c.Close()
		}
	}()
	rt := newRawRouter(t, Config{DownAfter: 1}, "http://"+ln.Addr().String())
	deadline := time.Now().Add(time.Second)
	for _, c := range []struct{ path, query, id string }{
		{"/lookup", "ip=10.0.0.1\r\nX-Evil: 1", "ok"},
		{"/lookup", "ip=10.0.0.1 HTTP/1.1", "ok"},
		{"/lookup", "ip=10.0.0.1\n", "ok"},
		{"/lookup", "ip=10.0.0.1", "id\r\nX-Evil: 1"},
		{"/lookup", "ip=10.0.0.1", "a b"},
		{"/lookup", "ip=10.0.0.1", "del\x7f"},
		{"/look up", "", ""},
	} {
		if _, err := rt.ups[0].roundTrip(context.Background(), deadline, http.MethodGet, c.path, c.query, c.id, nil, 1<<12); !errors.Is(err, errRefused) {
			t.Errorf("roundTrip(%q, %q, id %q) = %v, want errRefused", c.path, c.query, c.id, err)
		}
		if _, ok := rt.attempt(context.Background(), deadline, 0, http.MethodGet, c.path, c.query, nil, c.id); ok {
			t.Errorf("attempt(%q, %q, id %q) succeeded", c.path, c.query, c.id)
		}
	}
	ln.Close()
	<-done
	if n := accepted.Load(); n != 0 {
		t.Errorf("%d connections reached the replica, want 0", n)
	}
	if !rt.health[0].Up() {
		t.Error("a refused request marked the replica down")
	}
	for _, base := range []string{"https://127.0.0.1:1", "127.0.0.1:1", "http://", "http://a b", "http://h/x"} {
		if _, err := New(Config{ReplicaURLs: []string{base}}, telemetry.New()); err == nil {
			t.Errorf("New accepted replica URL %q", base)
		}
	}
}

// TestRouterAllocs gates the routed hop: one hit through Handler() against
// a one-replica fleet, counted process-wide — the replica's own net/http
// server and handler included.
func TestRouterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; a dropped body buffer is rebuilt from the heap")
	}
	const maxAllocs = 27
	fleet, err := NewLocalFleet(1, fleetTinyDataset(), "test:tiny", serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	rt := newRawRouter(t, Config{}, fleet.Addrs()...)
	h := rt.Handler()
	// A cancelable context, as a served request has: the hang-up watch is
	// part of the price.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/lookup?ip="+hotIP(), nil).WithContext(ctx)
	w := &nopWriter{h: make(http.Header)}
	serveOne := func() {
		delete(req.Header, obs.RequestIDHeader) // as a client sends it: the router mints the ID
		w.status = 0
		h.ServeHTTP(w, req)
	}
	serveOne() // prime: dial, pools, ledger slot
	if w.status != http.StatusOK {
		t.Fatalf("routed hit: %d", w.status)
	}
	n := testing.AllocsPerRun(2000, serveOne)
	t.Logf("allocs %.1f", n)
	if n > maxAllocs {
		t.Errorf("a routed hit allocates %.1f times process-wide, want at most %d", n, maxAllocs)
	}
	if w.status != http.StatusOK {
		t.Fatalf("routed hit: %d", w.status)
	}
}

// rawResponse sends req on a fresh connection to addr and returns every
// byte the server wrote back (req asks it to close afterwards).
func rawResponse(tb testing.TB, addr, req string) []byte {
	tb.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, req); err != nil {
		tb.Fatal(err)
	}
	b, err := io.ReadAll(c)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// upstreamSeeds returns real replica responses — hit, miss, 400, 429 with
// Retry-After, a 256-address /batch (real[3]), and last that /batch answer
// re-framed chunked, as a replica that does not know its body's length
// sends it — and hostile ones.
func upstreamSeeds(tb testing.TB) (real, hostile [][]byte) {
	srv := serve.New(serve.Config{}, telemetry.New())
	ds := fleetTinyDataset()
	if _, err := srv.Publish(ds, "test:tiny"); err != nil {
		tb.Fatal(err)
	}
	shed := &fakeReplica{}
	shed.shed.Store(true)
	for _, h := range []http.Handler{srv.Handler(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { shed.shedding(w) })} {
		ts := httptest.NewServer(h)
		addr := ts.Listener.Addr().String()
		get := func(target string) []byte {
			return rawResponse(tb, addr, "GET "+target+" HTTP/1.1\r\nHost: r\r\nX-Request-Id: seed\r\nConnection: close\r\n\r\n")
		}
		real = append(real, get("/lookup?ip="+hotIP()), get("/lookup?ip=203.0.113.9"), get("/lookup?ip=banana"))
		ips := make([]string, 256)
		for i := range ips {
			ips[i] = ds.Records[i%len(ds.Records)].Prefix.Addr(byte(i)).String()
		}
		body, _ := json.Marshal(map[string][]string{"ips": ips})
		real = append(real, rawResponse(tb, addr, fmt.Sprintf("POST /batch HTTP/1.1\r\nHost: r\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", len(body), body)))
		ts.Close()
	}
	for _, s := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",                                                // lying Content-Length
		"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",                            // duplicate
		"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",                           // conflicting
		"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n", // CL + TE
		"HTTP/1.1 200 OK\nContent-Length: 2\n\nhi",                                                        // bare LF
		"HTTP/1.1 200 OK\r\nX-A: a\r\n b\r\nContent-Length: 2\r\n\r\nhi",                                  // obs-fold
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n10000000000000000\r\nx\r\n0\r\n\r\n",        // over-long chunk size
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab",                                    // truncated chunk
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2;ext=1\r\nhi\r\n0\r\n\r\n",                 // chunk extension
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\nX-T: 1\r\n\r\n",             // trailer
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\nhi",                                            // not chunked
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi",                     // 1xx
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nhi",                                                  // not HTTP/1.1
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\nhi",                                           // past the bound
		"HTTP/1.1 200 OK\r\nContent Type: x\r\nContent-Length: 2\r\n\r\nhi",                               // bad field name
		"HTTP/1.1 600 Odd\r\nContent-Length: 2\r\n\r\nhi",                                                 // status out of range
	} {
		hostile = append(hostile, []byte(s))
	}
	return append(real, chunked(tb, real[3])), hostile
}

// chunked re-frames a Content-Length response as chunked, in chunks of at
// most 4 KB.
func chunked(tb testing.TB, resp []byte) []byte {
	head, body, ok := bytes.Cut(resp, []byte("\r\n\r\n"))
	if !ok {
		tb.Fatalf("no header end in %q", resp)
	}
	var out bytes.Buffer
	for _, line := range bytes.Split(head, []byte("\r\n")) {
		if bytes.HasPrefix(line, []byte("Content-Length:")) {
			line = []byte("Transfer-Encoding: chunked")
		}
		out.Write(line)
		out.WriteString("\r\n")
	}
	out.WriteString("\r\n")
	for len(body) > 0 {
		n := min(len(body), 4096)
		fmt.Fprintf(&out, "%x\r\n%s\r\n", n, body[:n])
		body = body[n:]
	}
	out.WriteString("0\r\n\r\n")
	return out.Bytes()
}

// FuzzUpstreamResponse is the hostile-replica arm: arbitrary bytes as a
// replica's response. Whatever the client's parser accepts, http.ReadResponse
// must read with the same status, Content-Type, Retry-After and body; it
// may refuse more than net/http, never panic, never hang and never hold a
// body past its bound.
func FuzzUpstreamResponse(f *testing.F) {
	const limit = 1 << 16
	real, hostile := upstreamSeeds(f)
	if !bytes.Contains(real[3], []byte("\r\nContent-Length: ")) || bytes.Contains(real[3], []byte("Transfer-Encoding")) {
		f.Fatalf("the 256-address /batch seed is not framed by Content-Length: %q", real[3][:200])
	}
	if last := real[len(real)-1]; !bytes.Contains(last, []byte("Transfer-Encoding: chunked")) {
		f.Fatalf("the re-framed /batch seed is not chunked: %q", last[:200])
	}
	for i, s := range real {
		if _, _, err := readResponse(bufio.NewReaderSize(bytes.NewReader(s), connBufSize), limit); err != nil {
			f.Fatalf("real replica response %d refused (%v): %q", i, err, s)
		}
		f.Add(s)
	}
	for _, s := range hostile {
		if _, _, err := readResponse(bufio.NewReaderSize(bytes.NewReader(s), connBufSize), limit); err == nil {
			f.Fatalf("hostile response accepted: %q", s)
		}
		f.Add(s)
	}
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nframed by close"))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, _, err := readResponse(bufio.NewReaderSize(bytes.NewReader(data), connBufSize), limit)
		if err != nil {
			if errors.Is(err, errRefused) {
				t.Fatalf("parser returned the request-side error: %v", err)
			}
			return
		}
		defer putBuf(res.buf)
		if len(res.body) > limit {
			t.Fatalf("accepted a %d-byte body past the %d bound", len(res.body), limit)
		}
		ref, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil {
			t.Fatalf("accepted what net/http refuses (%v): %q", err, data)
		}
		body, err := io.ReadAll(ref.Body)
		if err != nil {
			t.Fatalf("accepted a body net/http cannot read (%v): %q", err, data)
		}
		if ref.StatusCode != res.status || ref.Header.Get("Content-Type") != res.ctype ||
			ref.Header.Get("Retry-After") != res.retryAfter || !bytes.Equal(body, res.body) {
			t.Fatalf("disagrees with net/http on %q:\n got %d %q %q %q\nwant %d %q %q %q", data,
				res.status, res.ctype, res.retryAfter, res.body,
				ref.StatusCode, ref.Header.Get("Content-Type"), ref.Header.Get("Retry-After"), body)
		}
	})
}
