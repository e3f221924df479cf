package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
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
	stallDur atomic.Int64 // ns to sleep before answering /lookup
	ts       *httptest.Server
}

func newFakeReplica(t *testing.T, id int) *fakeReplica {
	t.Helper()
	f := &fakeReplica{id: id}
	f.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/lookup", func(w http.ResponseWriter, r *http.Request) {
		f.lookups.Add(1)
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
		var in batchIn
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
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
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts, reg
}

// addrInRange returns an address owned by replica i of an n-way
// partition (the range midpoint, to stay away from boundary effects).
func addrInRange(n, i int) string {
	rs := Partition(n)
	mid := ipaddr.Addr((uint64(rs[i].Lo) + uint64(rs[i].Hi)) / 2)
	return mid.String()
}

// TestRoutesByRange pins the core contract: each lookup lands on the
// replica owning its prefix range, and the response says which replica
// answered.
func TestRoutesByRange(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2), newFakeReplica(t, 3)}
	_, ts, _ := newTestRouter(t, Config{Replication: 1}, fakes...)
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
	_, ts, reg := newTestRouter(t, Config{Replication: 2}, primary, fallback)

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
	rt, err := New(Config{ReplicaURLs: []string{up.URL}, Replication: 1}, reg)
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

// TestDeadRangeAnswers503Fast pins the bounded failure domain: with
// Replication=1 and a dead primary, its range answers 503 with a
// Retry-After hint — quickly, never a hang — while the other range
// keeps answering 200.
func TestDeadRangeAnswers503Fast(t *testing.T) {
	dead, live := newFakeReplica(t, 0), newFakeReplica(t, 1)
	dead.ts.Close() // connections now refuse
	_, ts, reg := newTestRouter(t, Config{
		Replication:     1,
		UpstreamTimeout: 500 * time.Millisecond,
		RetryAfter:      2 * time.Second,
	}, dead, live)

	start := time.Now()
	resp, err := http.Get(ts.URL + "/lookup?ip=" + addrInRange(2, 0))
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dead-range answer took %v; the failure domain must be bounded", elapsed)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 2 || ra > 4 {
		t.Fatalf("Retry-After = %q, want an integer in [2, 4]", resp.Header.Get("Retry-After"))
	}
	if reg.Counter("georouter.range_unavailable").Value() == 0 {
		t.Error("range_unavailable counter not incremented")
	}

	resp, err = http.Get(ts.URL + "/lookup?ip=" + addrInRange(2, 1))
	if err != nil {
		t.Fatalf("live-range lookup: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live range status %d, want 200 — the failure leaked across ranges", resp.StatusCode)
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

// waitReplicaState polls /healthz until replica i reports the state.
func waitReplicaState(t *testing.T, url string, i int, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if routerHealth(t, url).Replicas[i].State == state {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("replica %d never reached state %q", i, state)
}

// TestProbeDownAndReadmission drives the full health cycle through real
// probes: a replica that stops passing /readyz goes down (and /readyz on
// the router goes 503 for its uncovered range), then comes back only
// after UpAfter consecutive probe successes.
func TestProbeDownAndReadmission(t *testing.T) {
	f0, f1 := newFakeReplica(t, 0), newFakeReplica(t, 1)
	rt, ts, _ := newTestRouter(t, Config{
		Replication:   1,
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		DownAfter:     2,
		UpAfter:       3,
	}, f0, f1)
	rt.Start()

	waitReplicaState(t, ts.URL, 0, "up")
	f0.ready.Store(false)
	waitReplicaState(t, ts.URL, 0, "down")

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router /readyz = %d with an uncovered range, want 503", resp.StatusCode)
	}

	f0.ready.Store(true)
	waitReplicaState(t, ts.URL, 0, "up")
	h := routerHealth(t, ts.URL)
	if h.Replicas[0].Readmits < 1 {
		t.Errorf("readmits = %d, want >= 1", h.Replicas[0].Readmits)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router /readyz = %d after readmission, want 200", resp.StatusCode)
	}
}

// TestHedgeWinsOnSlowPrimary pins hedging: a primary answering slower
// than the hedge delay loses the race to the fallback, the answer is
// marked "X-Router-Hedge: won", and the hedge counters account for it.
func TestHedgeWinsOnSlowPrimary(t *testing.T) {
	slow, fast := newFakeReplica(t, 0), newFakeReplica(t, 1)
	slow.stallDur.Store(int64(400 * time.Millisecond))
	_, ts, reg := newTestRouter(t, Config{
		Replication: 2,
		Hedge:       true,
		HedgeMin:    5 * time.Millisecond,
		HedgeMax:    10 * time.Millisecond,
	}, slow, fast)

	resp, err := http.Get(ts.URL + "/lookup?ip=" + addrInRange(2, 0))
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	var res serve.LookupResult
	json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Router-Hedge"); got != "won" {
		t.Fatalf("X-Router-Hedge = %q, want won", got)
	}
	if got := resp.Header.Get("X-Router-Replica"); got != "1" {
		t.Errorf("answered by %q, want the hedge target 1", got)
	}
	if resp.Header.Get("X-Router-Failovers") != "" {
		t.Error("hedge win must not count as a failover")
	}
	if reg.Counter("georouter.hedges").Value() != 1 || reg.Counter("georouter.hedge_wins").Value() != 1 {
		t.Errorf("hedge counters = %d launched / %d won, want 1/1",
			reg.Counter("georouter.hedges").Value(), reg.Counter("georouter.hedge_wins").Value())
	}
}

// TestBatchScatterGather pins the scatter-gather path: results come
// back in input order, each answered by the replica owning its range,
// unparseable addresses answered locally, and the replica set reported.
func TestBatchScatterGather(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, 0), newFakeReplica(t, 1), newFakeReplica(t, 2), newFakeReplica(t, 3)}
	_, ts, _ := newTestRouter(t, Config{Replication: 1}, fakes...)

	ips := []string{addrInRange(4, 2), addrInRange(4, 0), "not-an-ip", addrInRange(4, 3), addrInRange(4, 0)}
	payload, _ := json.Marshal(batchIn{IPs: ips})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	var out batchOut
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Results) != len(ips) {
		t.Fatalf("%d results for %d inputs", len(out.Results), len(ips))
	}
	wantMethods := []string{"replica-2", "replica-0", "", "replica-3", "replica-0"}
	for i, want := range wantMethods {
		if out.Results[i].IP != ips[i] {
			t.Errorf("result %d is for %q, want %q (order lost)", i, out.Results[i].IP, ips[i])
		}
		if out.Results[i].Method != want {
			t.Errorf("result %d answered by %q, want %q", i, out.Results[i].Method, want)
		}
	}
	if out.Results[2].Error == "" {
		t.Error("unparseable address has no error")
	}
	if got := resp.Header.Get("X-Router-Replica"); got != "0,2,3" {
		t.Errorf("X-Router-Replica = %q, want 0,2,3", got)
	}
	if fakes[1].batches.Load() != 0 {
		t.Error("replica 1 saw a sub-batch it owns no address of")
	}
}

// TestBatchFailsWholeWhenRangeDead pins that a batch touching a dead,
// unreplicated range fails loudly (503 + Retry-After) instead of
// returning a partial result set.
func TestBatchFailsWholeWhenRangeDead(t *testing.T) {
	dead, live := newFakeReplica(t, 0), newFakeReplica(t, 1)
	dead.ts.Close()
	_, ts, _ := newTestRouter(t, Config{
		Replication:     1,
		UpstreamTimeout: 500 * time.Millisecond,
	}, dead, live)

	payload, _ := json.Marshal(batchIn{IPs: []string{addrInRange(2, 0), addrInRange(2, 1)}})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 for a batch touching a dead range", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestBatchFailover pins that a sub-batch fails over to the range's
// fallback and the response accounts the failover.
func TestBatchFailover(t *testing.T) {
	primary, fallback := newFakeReplica(t, 0), newFakeReplica(t, 1)
	primary.fail.Store(true)
	_, ts, reg := newTestRouter(t, Config{Replication: 2}, primary, fallback)

	payload, _ := json.Marshal(batchIn{IPs: []string{addrInRange(2, 0)}})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	var out batchOut
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
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

// TestRouterMetricsExposition pins the /metrics surface: the status
// ledger and per-replica health gauges render in Prometheus format.
func TestRouterMetricsExposition(t *testing.T) {
	f0, f1 := newFakeReplica(t, 0), newFakeReplica(t, 1)
	_, ts, _ := newTestRouter(t, Config{Replication: 2, MetricsLabel: "router-test"}, f0, f1)

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
	_, ts, _ := newTestRouter(t, Config{Replication: 1, AdminToken: "sekrit"}, f0)

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
	_, ts, _ := newTestRouter(t, Config{Replication: 1}, f0)
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
