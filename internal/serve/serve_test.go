package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/faults"
	"geoloc/internal/ipaddr"
	"geoloc/internal/obs"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

// The tiny campaign is deterministic and shared across tests; compiling
// it once keeps the package fast.
var (
	tinyOnce sync.Once
	tinyDS   *dataset.Dataset
)

func tinyDataset() *dataset.Dataset {
	tinyOnce.Do(func() {
		c := core.NewCampaign(world.TinyConfig())
		tinyDS = dataset.Compile(c, dataset.Options{IncludeUnsanitized: true})
	})
	return tinyDS
}

// newPublished builds a server over the tiny dataset with the given
// config and a private registry, and publishes the artifact.
func newPublished(cfg Config) *Server {
	srv := New(cfg, telemetry.New())
	srv.Publish(tinyDataset(), "test:tiny")
	return srv
}

// newTestServer spins up the real handler over the tiny dataset on an
// httptest listener. Metrics go to a private registry so tests can
// assert on them.
func newTestServer(t *testing.T, prof *faults.Profile, maxBatch int) (*Server, *httptest.Server) {
	t.Helper()
	srv := newPublished(Config{Prof: prof, MaxBatch: maxBatch})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	return resp.StatusCode, string(b)
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, string(b)
}

// TestGoldenLookupAnswers is the end-to-end regression gate: a fixed-seed
// tiny campaign compiled into a dataset must answer these exact JSON
// bodies, byte for byte. If the world generator, the measurement
// pipeline, CBG, the dataset encoder, the index, or the handler changes
// behaviour, this fails and the change must be deliberate (regenerate the
// table and say why in the commit).
func TestGoldenLookupAnswers(t *testing.T) {
	_, ts := newTestServer(t, nil, 0)
	golden := []struct {
		ip     string
		status int
		body   string
	}{
		{"10.0.0.7", 200, `{"ip":"10.0.0.7","prefix":"10.0.0.0/24","lat":42.55024551682481,"lon":105.65892071198861,"radius_km":77.3931209996801,"method":"cbg","sanitized":true}`},
		{"10.0.2.255", 200, `{"ip":"10.0.2.255","prefix":"10.0.2.0/24","lat":42.19291994611804,"lon":111.50213172166362,"radius_km":186.15753948670266,"method":"cbg","sanitized":true}`},
		{"10.0.5.1", 200, `{"ip":"10.0.5.1","prefix":"10.0.5.0/24","lat":38.1656838386848,"lon":107.0779542583933,"radius_km":76.97873835711269,"method":"cbg","sanitized":true}`},
		// Removed anchors surface as unsanitized reported locations.
		{"10.0.29.1", 200, `{"ip":"10.0.29.1","prefix":"10.0.29.0/24","lat":41.11978237228221,"lon":107.46339077774519,"method":"reported"}`},
		{"10.0.30.200", 200, `{"ip":"10.0.30.200","prefix":"10.0.30.0/24","lat":-43.1615182840416,"lon":132.0611712423121,"method":"reported"}`},
		// Outside every allocated prefix.
		{"192.0.2.1", 404, `{"ip":"192.0.2.1","error":"no record covers this address"}`},
	}
	for _, g := range golden {
		status, body := get(t, ts.URL+"/lookup?ip="+g.ip)
		if status != g.status {
			t.Errorf("lookup %s: status = %d, want %d", g.ip, status, g.status)
		}
		if strings.TrimRight(body, "\n") != g.body {
			t.Errorf("lookup %s:\n got  %s\n want %s", g.ip, strings.TrimRight(body, "\n"), g.body)
		}
	}
	if ds := tinyDataset(); ds.Hdr.Seed != 20231024 {
		t.Errorf("tiny campaign seed drifted to %d; golden table is stale", ds.Hdr.Seed)
	}
}

func TestLookupBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil, 0)
	cases := []struct {
		name   string
		url    string
		status int
	}{
		{"missing ip", "/lookup", http.StatusBadRequest},
		{"empty ip", "/lookup?ip=", http.StatusBadRequest},
		{"not an ip", "/lookup?ip=banana", http.StatusBadRequest},
		{"octet overflow", "/lookup?ip=10.0.0.300", http.StatusBadRequest},
		{"leading zero", "/lookup?ip=10.0.0.07", http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body := get(t, ts.URL+c.url)
			if status != c.status {
				t.Fatalf("status = %d, want %d (body %s)", status, c.status, body)
			}
			if !strings.Contains(body, `"error"`) {
				t.Fatalf("error body missing error field: %s", body)
			}
		})
	}
	resp, err := http.Post(ts.URL+"/lookup?ip=10.0.0.7", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /lookup: status = %d, want 405", resp.StatusCode)
	}
}

// TestBatchEdgeCases is the table-driven edge-case matrix for /batch:
// empty body, malformed JSON, empty list, bad IPs inside an otherwise
// good batch, and oversized requests.
func TestBatchEdgeCases(t *testing.T) {
	_, ts := newTestServer(t, nil, 4)
	oversized := `{"ips":["10.0.0.1","10.0.0.2","10.0.0.3","10.0.0.4","10.0.0.5"]}`
	// A complete document with the body running on past the cap behind it:
	// the body is read whole, so the cap applies to all of it.
	overCap := `{"ips":["10.0.0.7"]}` + strings.Repeat(" ", MaxBatchBody)
	cases := []struct {
		name     string
		body     string
		status   int
		contains []string
	}{
		{"empty body", "", http.StatusBadRequest, []string{"bad request body"}},
		{"malformed json", `{"ips": [`, http.StatusBadRequest, []string{"bad request body"}},
		{"wrong type", `{"ips": "10.0.0.7"}`, http.StatusBadRequest, []string{"bad request body"}},
		{"empty list", `{"ips": []}`, http.StatusBadRequest, []string{"empty batch"}},
		{"no ips key", `{}`, http.StatusBadRequest, []string{"empty batch"}},
		{"oversized", oversized, http.StatusRequestEntityTooLarge, []string{"batch of 5 exceeds limit 4"}},
		{"body over the cap", overCap, http.StatusRequestEntityTooLarge, []string{"bad request body: http: request body too large"}},
		{"bad ip mixed in", `{"ips":["10.0.0.7","not-an-ip","192.0.2.1"]}`, http.StatusOK,
			[]string{`"ip":"10.0.0.7","prefix":"10.0.0.0/24"`, `"ip":"not-an-ip","error"`, `"ip":"192.0.2.1","error":"no record covers this address"`}},
		{"all good", `{"ips":["10.0.0.7","10.0.5.1"]}`, http.StatusOK,
			[]string{`"prefix":"10.0.0.0/24"`, `"prefix":"10.0.5.0/24"`}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body := post(t, ts.URL+"/batch", c.body)
			if status != c.status {
				t.Fatalf("status = %d, want %d (body %s)", status, c.status, body)
			}
			for _, want := range c.contains {
				if !strings.Contains(body, want) {
					t.Errorf("body missing %q:\n%s", want, body)
				}
			}
		})
	}
	resp, err := http.Get(ts.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /batch: status = %d, want 405", resp.StatusCode)
	}
}

// TestBatchPreservesOrder checks results come back in input order — the
// client correlates by position.
func TestBatchPreservesOrder(t *testing.T) {
	_, ts := newTestServer(t, nil, 0)
	_, body := post(t, ts.URL+"/batch", `{"ips":["10.0.5.1","bad","10.0.0.7"]}`)
	i1 := strings.Index(body, `"10.0.5.1"`)
	i2 := strings.Index(body, `"bad"`)
	i3 := strings.Index(body, `"10.0.0.7"`)
	if i1 < 0 || i2 < 0 || i3 < 0 || !(i1 < i2 && i2 < i3) {
		t.Fatalf("results out of order: %s", body)
	}
}

func TestHealthz(t *testing.T) {
	prof := faults.Degraded()
	_, ts := newTestServer(t, prof, 0)
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	ds := tinyDataset()
	for _, want := range []string{
		`"status":"ok"`,
		fmt.Sprintf(`"records":%d`, len(ds.Records)),
		fmt.Sprintf(`"dataset_seed":%d`, ds.Hdr.Seed),
		fmt.Sprintf(`"dataset_config_hash":"%016x"`, ds.Hdr.ConfigHash),
		`"generation":1`,
		`"fault_profile":"degraded"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("healthz missing %q: %s", want, body)
		}
	}
}

func TestReadyzAndVersion(t *testing.T) {
	srv, ts := newTestServer(t, nil, 0)
	if status, body := get(t, ts.URL+"/readyz"); status != http.StatusOK || !strings.Contains(body, `"ready"`) {
		t.Fatalf("readyz = %d %s, want 200 ready", status, body)
	}
	status, body := get(t, ts.URL+"/version")
	if status != http.StatusOK {
		t.Fatalf("version status = %d, want 200", status)
	}
	ds := tinyDataset()
	for _, want := range []string{
		`"generation":1`,
		`"source":"test:tiny"`,
		fmt.Sprintf(`"records":%d`, len(ds.Records)),
		fmt.Sprintf(`"dataset_seed":%d`, ds.Hdr.Seed),
		fmt.Sprintf(`"dataset_config_hash":"%016x"`, ds.Hdr.ConfigHash),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("version missing %q: %s", want, body)
		}
	}
	srv.StartDrain()
	if status, body := get(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining readyz = %d %s, want 503 draining", status, body)
	}
	// Liveness and the data plane are unaffected by drain.
	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200", status)
	}
	if status, _ := get(t, ts.URL+"/lookup?ip=10.0.0.7"); status != http.StatusOK {
		t.Errorf("lookup during drain = %d, want 200", status)
	}
}

// TestUnpublishedServer pins the before-first-Publish contract: readyz
// and the data plane answer 503 rather than panicking.
func TestUnpublishedServer(t *testing.T) {
	srv := New(Config{}, telemetry.New())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/readyz", "/lookup?ip=10.0.0.7", "/version", "/healthz"} {
		if status, _ := get(t, ts.URL+path); status != http.StatusServiceUnavailable {
			t.Errorf("%s before publish = %d, want 503", path, status)
		}
	}
	if status, _ := post(t, ts.URL+"/batch", `{"ips":["10.0.0.7"]}`); status != http.StatusServiceUnavailable {
		t.Errorf("batch before publish = %d, want 503", status)
	}
}

// TestServeFaultInjection forces the serving fault knobs to certainty and
// checks the lookup path degrades the documented way: 503 on /lookup,
// per-item errors on /batch, and injected stalls actually routed through
// the sleep hook.
func TestServeFaultInjection(t *testing.T) {
	prof := &faults.Profile{Name: "test-fail", ServeFailProb: 1}
	_, ts := newTestServer(t, prof, 0)
	status, body := get(t, ts.URL+"/lookup?ip=10.0.0.7")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", status, body)
	}
	if !strings.Contains(body, "injected") {
		t.Fatalf("body does not mention injection: %s", body)
	}
	status, body = post(t, ts.URL+"/batch", `{"ips":["10.0.0.7","10.0.5.1"]}`)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d, want 200 (per-item degradation)", status)
	}
	if strings.Count(body, "injected") != 2 {
		t.Fatalf("want 2 injected per-item errors: %s", body)
	}

	// Stalls: certainty probability, capture through the sleep hook.
	stallProf := &faults.Profile{Name: "test-stall", ServeStallProb: 1, ServeStallMaxMs: 80}
	srv := newPublished(Config{Prof: stallProf})
	var slept []time.Duration
	srv.sleep = func(_ context.Context, d time.Duration) bool { slept = append(slept, d); return true }
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/lookup?ip=10.0.0.7", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stalled lookup status = %d, want 200", rec.Code)
	}
	if len(slept) != 1 || slept[0] <= 0 || slept[0] > 80*time.Millisecond {
		t.Fatalf("injected stall = %v, want one sleep in (0, 80ms]", slept)
	}
	// Determinism: the same IP stalls by the same amount every time.
	srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/lookup?ip=10.0.0.7", nil))
	if len(slept) != 2 || slept[1] != slept[0] {
		t.Fatalf("stall not deterministic per IP: %v", slept)
	}
}

// TestNoFaultProfileNeverInjects pins the nil-profile fast path.
func TestNoFaultProfileNeverInjects(t *testing.T) {
	srv := newPublished(Config{})
	srv.sleep = func(context.Context, time.Duration) bool { panic("nil profile slept") }
	for host := 0; host < 256; host++ {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/lookup?ip=10.0.0.%d", host), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("10.0.0.%d: status = %d, want 200", host, rec.Code)
		}
	}
}

// TestMetricsCounted spot-checks the telemetry wiring, including the
// per-status ledger.
func TestMetricsCounted(t *testing.T) {
	reg := telemetry.New()
	srv := New(Config{}, reg)
	srv.Publish(tinyDataset(), "test:tiny")
	h := srv.Handler()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/lookup?ip=10.0.0.7", nil))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/lookup?ip=192.0.2.1", nil))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/lookup?ip=junk", nil))
	if got := srv.reqLookup.Value(); got != 3 {
		t.Errorf("requests_lookup = %d, want 3", got)
	}
	if got := srv.hits.Value(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := srv.misses.Value(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := srv.badInput.Value(); got != 1 {
		t.Errorf("bad_input = %d, want 1", got)
	}
	if got := srv.latencyMs.Count(); got != 3 {
		t.Errorf("latency observations = %d, want 3 (bad input still times)", got)
	}
	for code, want := range map[int]int64{200: 1, 404: 1, 400: 1} {
		if got := srv.status.Counter(code, obs.PlaneData).Value(); got != want {
			t.Errorf("status ledger %d = %d, want %d", code, got, want)
		}
	}
}

// TestIndexMatchesReader: the deprecated Index is nil before the first
// Publish; after it, every record's /24 answers with that record's
// position, as Reader2.Find does, and an address no record covers misses.
func TestIndexMatchesReader(t *testing.T) {
	srv := New(Config{}, nil)
	if srv.Index() != nil {
		t.Fatal("Index before Publish is not nil")
	}
	ds := tinyDataset()
	srv.Publish(ds, "test:tiny")
	ix := srv.Index()
	if ix == nil {
		t.Fatal("Index after Publish is nil")
	}
	r2 := srv.Current().R2
	for i, rec := range ds.Records {
		a := rec.Prefix.Addr(byte(i))
		want, ok, err := r2.Find(a)
		if err != nil || !ok || want.Prefix != rec.Prefix {
			t.Fatalf("Find(%s) = %v, %v, %v", a, want.Prefix, ok, err)
		}
		if at, ok := ix.Lookup(a); !ok || at != i {
			t.Fatalf("Index().Lookup(%s) = %d, %v; want record %d", a, at, ok, i)
		}
	}
	miss := ipaddr.MustParse("192.0.2.1")
	if _, ok, _ := r2.Find(miss); ok {
		t.Fatalf("Find(%s) hit; the miss address must lie outside the dataset", miss)
	}
	if at, ok := ix.Lookup(miss); ok {
		t.Fatalf("Index().Lookup(%s) = record %d, want a miss", miss, at)
	}
}
