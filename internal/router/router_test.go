package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geoloc/internal/ipaddr"
	"geoloc/internal/obs"
	"geoloc/internal/serve"
	"geoloc/internal/telemetry"
)

// fakeReplica is a scriptable upstream: per-path handlers plus counters
// the tests assert routing decisions against.
type fakeReplica struct {
	id       int
	lookups  atomic.Int64
	batches  atomic.Int64
	ready    atomic.Bool
	fail     atomic.Bool  // 500 every data request
	shed     atomic.Bool  // 429 + "Retry-After: 3" every data request
	stallDur atomic.Int64 // ns to sleep before answering /lookup
	lastBody atomic.Value // []byte: the most recent /batch body as received
	ts       *httptest.Server
}

// batchIn/batchOut are serve's /batch documents, as the fake replicas and
// the tests read them; the router itself never decodes a batch.
type batchIn struct {
	IPs []string `json:"ips"`
}

type batchOut struct {
	Results []serve.LookupResult `json:"results"`
}

// shedding answers a shed replica's 429 when the switch is on.
func (f *fakeReplica) shedding(w http.ResponseWriter) bool {
	if !f.shed.Load() {
		return false
	}
	w.Header().Set("Retry-After", "3")
	http.Error(w, "shed", http.StatusTooManyRequests)
	return true
}

func newFakeReplica(t *testing.T, id int) *fakeReplica {
	t.Helper()
	f := &fakeReplica{id: id}
	f.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/lookup", func(w http.ResponseWriter, r *http.Request) {
		f.lookups.Add(1)
		poke() // a lookup arrived
		if d := f.stallDur.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return
			}
		}
		if f.fail.Load() {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		if f.shedding(w) {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.LookupResult{
			IP: r.URL.Query().Get("ip"), Method: fmt.Sprintf("replica-%d", id)})
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		f.batches.Add(1)
		if f.fail.Load() {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		if f.shedding(w) {
			return
		}
		body, _ := io.ReadAll(r.Body)
		f.lastBody.Store(body)
		var in batchIn
		if err := json.Unmarshal(body, &in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := batchOut{}
		for _, ip := range in.IPs {
			out.Results = append(out.Results, serve.LookupResult{
				IP: ip, Method: fmt.Sprintf("replica-%d", id)})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !f.ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// newTestRouter wires a router (not started — probes are opt-in per
// test) over the fakes and serves it on an httptest listener.
func newTestRouter(t *testing.T, cfg Config, fakes ...*fakeReplica) (*Router, *httptest.Server, *telemetry.Registry) {
	t.Helper()
	for _, f := range fakes {
		cfg.ReplicaURLs = append(cfg.ReplicaURLs, f.ts.URL)
	}
	reg := telemetry.New()
	rt, err := New(cfg, reg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.onHealth = poke
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(poking(rt.Handler()))
	t.Cleanup(ts.Close)
	return rt, ts, reg
}

// addrInRange returns an address whose lookups start at replica i of an
// n-way partition (the range midpoint, to stay away from boundary effects).
func addrInRange(n, i int) string {
	rs := Partition(n)
	mid := ipaddr.Addr((uint64(rs[i].Lo) + uint64(rs[i].Hi)) / 2)
	return mid.String()
}

// TestRoutesByRange pins the spread: on a healthy fleet each lookup lands
// on the replica the partition names for its prefix range, and the
// response says which replica answered.
func TestRoutesByRange(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2), newFakeReplica(t, 3)}
	_, ts, _ := newTestRouter(t, Config{}, fakes...)
	for i := 0; i < 4; i++ {
		resp, err := http.Get(ts.URL + "/lookup?ip=" + addrInRange(4, i))
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		var res serve.LookupResult
		json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica %d range: status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Router-Replica"); got != strconv.Itoa(i) {
			t.Errorf("replica %d range answered by %q", i, got)
		}
		if want := fmt.Sprintf("replica-%d", i); res.Method != want {
			t.Errorf("result method %q, want %q", res.Method, want)
		}
	}
	for i, f := range fakes {
		if n := f.lookups.Load(); n != 1 {
			t.Errorf("replica %d saw %d lookups, want 1", i, n)
		}
	}
}

// TestFailoverCarriesOriginalIDOnce is the satellite regression test: a
// failed-over answer must carry the client's X-Request-Id exactly once
// (set by the router's observe middleware, never duplicated from the
// upstream response), plus an X-Router-Failovers count that matches the
// georouter.failovers metric.
func TestFailoverCarriesOriginalIDOnce(t *testing.T) {
	primary, fallback := newFakeReplica(t, 0), newFakeReplica(t, 1)
	primary.fail.Store(true)
	_, ts, reg := newTestRouter(t, Config{}, primary, fallback)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/lookup?ip="+addrInRange(2, 0), nil)
	req.Header.Set(obs.RequestIDHeader, "abc-failover-test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover", resp.StatusCode)
	}
	ids := resp.Header.Values(obs.RequestIDHeader)
	if len(ids) != 1 || ids[0] != "abc-failover-test" {
		t.Fatalf("X-Request-Id values = %v, want exactly [abc-failover-test]", ids)
	}
	if got := resp.Header.Get("X-Router-Failovers"); got != "1" {
		t.Errorf("X-Router-Failovers = %q, want 1", got)
	}
	if got := resp.Header.Get("X-Router-Replica"); got != "1" {
		t.Errorf("answered by replica %q, want 1", got)
	}
	if primary.lookups.Load() == 0 {
		t.Error("primary was never tried")
	}
	if got := reg.Counter("georouter.failovers").Value(); got != 1 {
		t.Errorf("georouter.failovers = %d, want 1", got)
	}
}

// TestDuplicateRequestIDEchoedOnce: a request carrying two X-Request-Id
// values is answered, and forwarded, with the first one only.
func TestDuplicateRequestIDEchoedOnce(t *testing.T) {
	var seen atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("/lookup", func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Header.Values(obs.RequestIDHeader))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.LookupResult{IP: "x"})
	})
	up := httptest.NewServer(mux)
	t.Cleanup(up.Close)
	rt, err := New(Config{ReplicaURLs: []string{up.URL}}, telemetry.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/lookup?ip=10.0.0.1", nil)
	req.Header.Add(obs.RequestIDHeader, "first-id")
	req.Header.Add(obs.RequestIDHeader, "second-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ids := resp.Header.Values(obs.RequestIDHeader); len(ids) != 1 || ids[0] != "first-id" {
		t.Fatalf("answer's X-Request-Id values = %q, want exactly [first-id]", ids)
	}
	if ids, _ := seen.Load().([]string); len(ids) != 1 || ids[0] != "first-id" {
		t.Fatalf("forwarded X-Request-Id values = %q, want exactly [first-id]", ids)
	}
}

// TestRouterMetricsOnNilRegistry: a router handed the nil registry meters
// nothing, and GET /metrics still answers 200 with an empty exposition.
func TestRouterMetricsOnNilRegistry(t *testing.T) {
	rt, err := New(Config{ReplicaURLs: []string{newFakeReplica(t, 0).ts.URL}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics on the nil registry = %d %q, want 200", rec.Code, rec.Body.String())
	}
}

// TestUpstreamIDForwarded pins that the router forwards the request ID
// on the upstream hop (the replica sees the same ID the client sent).
func TestUpstreamIDForwarded(t *testing.T) {
	var seen atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("/lookup", func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Header.Get(obs.RequestIDHeader))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.LookupResult{IP: "x"})
	})
	up := httptest.NewServer(mux)
	t.Cleanup(up.Close)
	reg := telemetry.New()
	rt, err := New(Config{ReplicaURLs: []string{up.URL}}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/lookup?ip=10.0.0.1", nil)
	req.Header.Set(obs.RequestIDHeader, "fwd-test-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got, _ := seen.Load().(string); got != "fwd-test-7" {
		t.Fatalf("replica saw X-Request-Id %q, want fwd-test-7", got)
	}
}

// TestDeadRangeAnswers503Fast pins the one degraded answer: when no
// replica is live a lookup gets 503 with a jittered Retry-After hint —
// quickly, never a hang, and without touching a replica already marked
// down — and the first replica re-admitted answers 200 for every range.
func TestDeadRangeAnswers503Fast(t *testing.T) {
	dead, late := newFakeReplica(t, 0), newFakeReplica(t, 1)
	dead.ts.Close() // connections now refuse
	late.fail.Store(true)
	rt, ts, reg := newTestRouter(t, Config{
		DownAfter:       1,
		UpAfter:         1,
		UpstreamTimeout: 500 * time.Millisecond,
		RetryAfter:      2 * time.Second,
	}, dead, late)

	// The first lookup finds both replicas failing and marks them down; the
	// second finds nobody to ask.
	for i := 1; i <= 2; i++ {
		start := time.Now()
		resp, err := http.Get(ts.URL + "/lookup?ip=" + addrInRange(2, 0))
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("lookup %d took %v with no live replica; the answer must be fast", i, elapsed)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("lookup %d: status %d, want 503", i, resp.StatusCode)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 2 || ra > 4 {
			t.Fatalf("Retry-After = %q, want an integer in [2, 4]", resp.Header.Get("Retry-After"))
		}
		if got := reg.Counter("georouter.range_unavailable").Value(); got != int64(i) {
			t.Errorf("range_unavailable = %d after %d 503s", got, i)
		}
	}
	if n := late.lookups.Load(); n != 1 {
		t.Errorf("replica 1 saw %d lookups, want 1: a replica marked down must be skipped", n)
	}

	late.fail.Store(false)
	rt.health[1].recordProbe(true, 1, 1) // the probe that re-admits it
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/lookup?ip=" + addrInRange(2, i))
		if err != nil {
			t.Fatalf("lookup after readmission: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Router-Replica") != "1" {
			t.Fatalf("range %d after readmission: %d via %q, want 200 via the survivor 1",
				i, resp.StatusCode, resp.Header.Get("X-Router-Replica"))
		}
	}
}

// routerHealth fetches and decodes the router's /healthz fleet table.
func routerHealth(t *testing.T, url string) healthBody {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var body healthBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	return body
}

// progress is poked each time something a test waits for may have
// changed: the router recorded a health outcome (its onHealth hook, from
// the probe loop and the handler), a fake replica received a lookup, or
// the router's handler chain returned. waitUntil re-checks on it.
var progress = make(chan struct{}, 1)

func poke() {
	select {
	case progress <- struct{}{}:
	default: // a poke is already pending; one re-check sees both
	}
}

// poking wraps h so that every request's return from it pokes progress:
// the event behind a ledger entry written once the handler is done.
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
	limit := time.NewTimer(10 * time.Second)
	defer limit.Stop()
	for !cond() {
		select {
		case <-progress:
		case <-limit.C:
			t.Fatalf("timeout waiting for %s", what)
		}
	}
}

// waitReplicaState waits until /healthz reports replica i in the state,
// re-reading it after every health record.
func waitReplicaState(t *testing.T, url string, i int, state string) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("replica %d to be %s", i, state), func() bool {
		return routerHealth(t, url).Replicas[i].State == state
	})
}

// TestProbeDownAndReadmission drives the full health cycle through real
// probes: a replica that stops passing /readyz goes down, the router's
// own /readyz stays 200 while another replica is live and goes 503 when
// none is, and a replica comes back only after UpAfter consecutive probe
// successes.
func TestProbeDownAndReadmission(t *testing.T) {
	f0, f1 := newFakeReplica(t, 0), newFakeReplica(t, 1)
	rt, ts, _ := newTestRouter(t, Config{
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		DownAfter:     2,
		UpAfter:       3,
	}, f0, f1)
	rt.Start()
	readyz := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	waitReplicaState(t, ts.URL, 0, "up")
	f0.ready.Store(false)
	waitReplicaState(t, ts.URL, 0, "down")
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("router /readyz = %d with replica 1 live, want 200", got)
	}
	f1.ready.Store(false)
	waitReplicaState(t, ts.URL, 1, "down")
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("router /readyz = %d with no live replica, want 503", got)
	}

	f0.ready.Store(true)
	waitReplicaState(t, ts.URL, 0, "up")
	h := routerHealth(t, ts.URL)
	if h.Replicas[0].Readmits < 1 {
		t.Errorf("readmits = %d, want >= 1", h.Replicas[0].Readmits)
	}
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("router /readyz = %d after readmission, want 200", got)
	}
}

// postBatch posts body to the router's /batch and returns the response
// with its body read.
func postBatch(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("batch body: %v", err)
	}
	return resp, raw
}

// TestBatchForwardedWhole pins the batch path: one upstream request per
// batch, carrying the body exactly as the client sent it — whatever
// ranges its addresses fall in, unparseable ones included — results back
// in input order, and consecutive batches dealt round the ring.
func TestBatchForwardedWhole(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2), newFakeReplica(t, 3)}
	_, ts, _ := newTestRouter(t, Config{}, fakes...)

	ips := []string{addrInRange(4, 2), addrInRange(4, 0), "not-an-ip", addrInRange(4, 3), addrInRange(4, 0)}
	for b := 0; b < 4; b++ {
		// Not what json.Marshal would write: forwarding must not re-encode.
		payload := []byte(fmt.Sprintf("{ \"ips\" : [%q,%q,%q,%q,%q] , \"batch\":%d}", ips[0], ips[1], ips[2], ips[3], ips[4], b))
		resp, raw := postBatch(t, ts.URL, payload)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", b, resp.StatusCode)
		}
		var out batchOut
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("batch %d: decode: %v", b, err)
		}
		if len(out.Results) != len(ips) {
			t.Fatalf("batch %d: %d results for %d inputs", b, len(out.Results), len(ips))
		}
		for i, r := range out.Results {
			if r.IP != ips[i] {
				t.Errorf("batch %d result %d is for %q, want %q (order lost)", b, i, r.IP, ips[i])
			}
			if want := fmt.Sprintf("replica-%d", b); r.Method != want {
				t.Errorf("batch %d result %d answered by %q, want %q", b, i, r.Method, want)
			}
		}
		if got := resp.Header.Get("X-Router-Replica"); got != strconv.Itoa(b) {
			t.Errorf("batch %d: X-Router-Replica = %q, want %d", b, got, b)
		}
		if got, _ := fakes[b].lastBody.Load().([]byte); !bytes.Equal(got, payload) {
			t.Errorf("batch %d: replica received %q, client sent %q", b, got, payload)
		}
	}
	for i, f := range fakes {
		if n := f.batches.Load(); n != 1 {
			t.Errorf("replica %d saw %d upstream batch requests for 4 batches over 4 replicas, want 1", i, n)
		}
	}
}

// TestBatchFailsWholeWhenRangeDead pins that a batch no live replica
// answers fails loudly (503 + Retry-After, one range_unavailable) and is
// answered whole by the survivor once one is live.
func TestBatchFailsWholeWhenRangeDead(t *testing.T) {
	dead, late := newFakeReplica(t, 0), newFakeReplica(t, 1)
	dead.ts.Close()
	late.fail.Store(true)
	_, ts, reg := newTestRouter(t, Config{
		UpstreamTimeout: 500 * time.Millisecond,
	}, dead, late)

	payload, _ := json.Marshal(batchIn{IPs: []string{addrInRange(2, 0), addrInRange(2, 1)}})
	resp, _ := postBatch(t, ts.URL, payload)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 for a batch no replica answered", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := reg.Counter("georouter.range_unavailable").Value(); got != 1 {
		t.Errorf("range_unavailable = %d, want 1", got)
	}

	late.fail.Store(false)
	resp, raw := postBatch(t, ts.URL, payload)
	var out batchOut
	json.Unmarshal(raw, &out)
	if resp.StatusCode != http.StatusOK || len(out.Results) != 2 {
		t.Fatalf("status %d with %d results once a replica is live, want 200 with 2", resp.StatusCode, len(out.Results))
	}
	for i, r := range out.Results {
		if r.Method != "replica-1" {
			t.Errorf("result %d answered by %q, want the survivor replica-1", i, r.Method)
		}
	}
}

// TestBatchFailover pins that a batch whose first replica fails is
// answered by the next one and the response accounts the failover.
func TestBatchFailover(t *testing.T) {
	primary, fallback := newFakeReplica(t, 0), newFakeReplica(t, 1)
	primary.fail.Store(true)
	_, ts, reg := newTestRouter(t, Config{}, primary, fallback)

	payload, _ := json.Marshal(batchIn{IPs: []string{addrInRange(2, 0)}})
	resp, raw := postBatch(t, ts.URL, payload)
	var out batchOut
	json.Unmarshal(raw, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover", resp.StatusCode)
	}
	if out.Results[0].Method != "replica-1" {
		t.Errorf("answered by %q, want replica-1", out.Results[0].Method)
	}
	if got := resp.Header.Get("X-Router-Failovers"); got != "1" {
		t.Errorf("X-Router-Failovers = %q, want 1", got)
	}
	if reg.Counter("georouter.failovers").Value() != 1 {
		t.Errorf("georouter.failovers = %d, want 1", reg.Counter("georouter.failovers").Value())
	}
}

// TestShedReplicaRetryAfterReachesClient pins that a replica's 429 comes
// through the router whole: the clients that were shed are exactly the
// ones that must be told when to come back.
func TestShedReplicaRetryAfterReachesClient(t *testing.T) {
	f0 := newFakeReplica(t, 0)
	f0.shed.Store(true)
	_, ts, _ := newTestRouter(t, Config{}, f0)
	for _, c := range []struct{ method, target, body string }{
		{http.MethodGet, "/lookup?ip=10.0.0.1", ""},
		{http.MethodPost, "/batch", `{"ips":["10.0.0.1"]}`},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.target, strings.NewReader(c.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", c.target, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "3" {
			t.Errorf("%s %s: %d with Retry-After %q, want the replica's 429 with Retry-After 3",
				c.method, c.target, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
}

// TestFailoverWalksWholeRing pins the loop's first exit: a lookup is
// answered by the only healthy replica however far round the ring it is,
// the failed attempts are accounted, and once DownAfter such lookups have
// marked the failing replicas down the next one goes straight past them.
func TestFailoverWalksWholeRing(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2), newFakeReplica(t, 3)}
	for _, f := range fakes[:3] {
		f.fail.Store(true)
	}
	const downAfter = 2
	_, ts, reg := newTestRouter(t, Config{DownAfter: downAfter}, fakes...)
	get := func() *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + "/lookup?ip=" + addrInRange(4, 0))
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Router-Replica") != "3" {
			t.Fatalf("%d via %q, want 200 via replica 3", resp.StatusCode, resp.Header.Get("X-Router-Replica"))
		}
		return resp
	}
	for i := 1; i <= downAfter; i++ {
		if got := get().Header.Get("X-Router-Failovers"); got != "3" {
			t.Errorf("lookup %d: X-Router-Failovers = %q, want 3", i, got)
		}
		if f, r := reg.Counter("georouter.failovers").Value(), reg.Counter("georouter.retries").Value(); f != int64(3*i) || r != int64(3*i) {
			t.Errorf("lookup %d: failovers = %d, retries = %d, want %d each", i, f, r, 3*i)
		}
	}
	if got := get().Header.Get("X-Router-Failovers"); got != "" {
		t.Errorf("X-Router-Failovers = %q with the failing replicas marked down, want none", got)
	}
	for i, f := range fakes[:3] {
		if n := f.lookups.Load(); n != downAfter {
			t.Errorf("replica %d saw %d lookups, want %d: marked down, it must be skipped", i, n, downAfter)
		}
	}
	if n := fakes[3].lookups.Load(); n != downAfter+1 {
		t.Errorf("replica 3 saw %d lookups, want %d", n, downAfter+1)
	}
}

// TestAllStalledAnswers504 pins the loop's second exit: with every
// replica hanging, the request deadline — not the sum of the attempt
// budgets — bounds the answer, and the answer is 504.
func TestAllStalledAnswers504(t *testing.T) {
	f0, f1 := newFakeReplica(t, 0), newFakeReplica(t, 1)
	f0.stallDur.Store(int64(5 * time.Second))
	f1.stallDur.Store(int64(5 * time.Second))
	rt, _, _ := newTestRouter(t, Config{
		UpstreamTimeout: 50 * time.Millisecond,
		RequestTimeout:  80 * time.Millisecond,
	}, f0, f1)

	rec := httptest.NewRecorder()
	start := time.Now()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/lookup?ip="+addrInRange(2, 0), nil))
	if elapsed := time.Since(start); elapsed >= 150*time.Millisecond {
		t.Errorf("answered in %v, want < 150ms", elapsed)
	}
	if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), "request deadline expired") {
		t.Fatalf("%d %q, want 504 request deadline expired", rec.Code, rec.Body.String())
	}
	if f0.lookups.Load() != 1 || f1.lookups.Load() != 1 {
		t.Errorf("replicas saw %d and %d lookups, want one attempt each", f0.lookups.Load(), f1.lookups.Load())
	}
}

// TestClientHangupScoresNothing pins the loop's third exit: a client that
// goes away mid-attempt ends the request, and the attempt it cut short
// says nothing about the replica's health.
func TestClientHangupScoresNothing(t *testing.T) {
	f0 := newFakeReplica(t, 0)
	f0.stallDur.Store(int64(5 * time.Second))
	rt, ts, _ := newTestRouter(t, Config{DownAfter: 1}, f0)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/lookup?ip=10.0.0.1", nil)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitUntil(t, "the lookup to reach the replica", func() bool { return f0.lookups.Load() > 0 })
	hungUp := time.Now()
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled lookup returned an answer")
	}
	// The router's handler returns once its attempt has been cut short; the
	// ledger entry it then writes is the signal that scoring is over.
	done := rt.status.Counter(http.StatusGatewayTimeout, obs.PlaneData)
	waitUntil(t, "the router to finish the abandoned request", func() bool { return done.Value() > 0 })
	// The hang-up aborts the exchange in flight; it does not wait out
	// UpstreamTimeout (2 s here).
	if d := time.Since(hungUp); d > 100*time.Millisecond {
		t.Errorf("the handler returned %v after the hang-up, want within 100ms", d)
	}
	if h := routerHealth(t, ts.URL).Replicas[0]; h.ConsecFails != 0 || h.State != "up" {
		t.Fatalf("replica 0 after a client hang-up: state %q, consec_fails %d, want up and 0", h.State, h.ConsecFails)
	}
}

// TestRouterMetricsExposition pins the /metrics surface: the status
// ledger and per-replica health gauges render in Prometheus format.
func TestRouterMetricsExposition(t *testing.T) {
	f0, f1 := newFakeReplica(t, 0), newFakeReplica(t, 1)
	_, ts, _ := newTestRouter(t, Config{}, f0, f1)

	resp, err := http.Get(ts.URL + "/lookup?ip=" + addrInRange(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exp, err := obs.ParseExposition(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("exposition did not parse: %v", err)
	}
	if s := exp.Find("georouter_status_total", map[string]string{"code": "200", "plane": "data"}); len(s) != 1 || s[0].Value < 1 {
		t.Errorf("georouter_status_total{code=200,plane=data} = %v, want one sample >= 1", s)
	}
	if s := exp.Find("georouter_replica_up", map[string]string{"replica": "0"}); len(s) != 1 || s[0].Value != 1 {
		t.Errorf("georouter_replica_up{replica=0} = %v, want one sample == 1", s)
	}
}

// TestAdminReplicaGuard pins the admin surface: token required, 501
// without a controller, bad inputs rejected.
func TestAdminReplicaGuard(t *testing.T) {
	f0 := newFakeReplica(t, 0)
	_, ts, _ := newTestRouter(t, Config{AdminToken: "sekrit"}, f0)

	post := func(path, token string) int {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+path, nil)
		if token != "" {
			req.Header.Set("X-Admin-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("/admin/replica?replica=0&action=stop", ""); got != http.StatusForbidden {
		t.Errorf("no token: %d, want 403", got)
	}
	if got := post("/admin/replica?replica=0&action=stop", "wrong"); got != http.StatusForbidden {
		t.Errorf("bad token: %d, want 403", got)
	}
	if got := post("/admin/replica?replica=0&action=stop", "sekrit"); got != http.StatusNotImplemented {
		t.Errorf("no controller: %d, want 501", got)
	}
	if got := post("/admin/replica?replica=9&action=stop", "sekrit"); got != http.StatusBadRequest {
		t.Errorf("bad replica index: %d, want 400", got)
	}
}

// TestLookupValidation pins the router's own input validation (no
// upstream round-trip for garbage).
func TestLookupValidation(t *testing.T) {
	f0 := newFakeReplica(t, 0)
	_, ts, _ := newTestRouter(t, Config{}, f0)
	for _, c := range []struct {
		url  string
		want int
	}{
		{"/lookup", http.StatusBadRequest},
		{"/lookup?ip=banana", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + c.url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: %d, want %d", c.url, resp.StatusCode, c.want)
		}
	}
	if f0.lookups.Load() != 0 {
		t.Error("invalid input reached a replica")
	}
}
