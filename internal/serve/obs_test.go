package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"geoloc/internal/obs"
	"geoloc/internal/telemetry"
)

// scrapeMetrics fetches /metrics and parses it with the strict linter,
// so every scrape in these tests also asserts the exposition is valid.
func scrapeMetrics(t *testing.T, base string) *obs.Scrape {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, telemetry.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics does not lint: %v\n%s", err, body)
	}
	return sc
}

// TestMetricsEndpoint: the ledger and serving counters come out as valid
// Prometheus exposition with the embedded labels expanded.
func TestMetricsEndpoint(t *testing.T) {
	srv := newPublished(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get(t, ts.URL+"/lookup?ip=10.0.0.7")
	get(t, ts.URL+"/lookup?ip=junk")
	sc := scrapeMetrics(t, ts.URL)

	want := map[string]map[string]string{
		"geoserve_status_total": {"code": "200", "plane": "data"},
		"geoserve_hits_total":   nil,
	}
	for name, labels := range want {
		if v, err := sc.Value(name, labels); err != nil || v != 1 {
			t.Errorf("%s%v = %v (%v), want 1", name, labels, v, err)
		}
	}
	if v, err := sc.Value("geoserve_status_total",
		map[string]string{"code": "400", "plane": "data"}); err != nil || v != 1 {
		t.Errorf("400 ledger = %v (%v), want 1", v, err)
	}
	if sc.Types["geoserve_latency_ms"] != "histogram" {
		t.Errorf("latency histogram missing: %v", sc.Types)
	}
}

// TestMetricsReachableWhileSaturated is the acceptance criterion: with
// every inflight slot and queue slot occupied, /metrics still answers
// with valid exposition that shows the saturation.
func TestMetricsReachableWhileSaturated(t *testing.T) {
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

	// Only the inflight request reached the handler; the queued one is
	// still parked in admission.
	sc := scrapeMetrics(t, ts.URL)
	if v, err := sc.Value("geoserve_requests_lookup_total", nil); err != nil || v != 1 {
		t.Errorf("lookup counter during saturation = %v (%v), want 1", v, err)
	}

	// And while draining: the control plane stays up to the end.
	srv.StartDrain()
	scrapeMetrics(t, ts.URL)

	close(release)
	drainLookup(inflight, queued)
}

// accessRecord mirrors the JSON access-log schema for test decoding.
type accessRecord struct {
	Msg         string  `json:"msg"`
	ID          string  `json:"id"`
	IDAdopted   bool    `json:"id_adopted"`
	Method      string  `json:"method"`
	Path        string  `json:"path"`
	Plane       string  `json:"plane"`
	Status      int     `json:"status"`
	Generation  uint64  `json:"generation"`
	QueueWaitMs float64 `json:"queue_wait_ms"`
	LatencyMs   float64 `json:"latency_ms"`
	Cause       string  `json:"cause"`
}

// decodeAccessLog parses every "request" record from a JSON log buffer.
func decodeAccessLog(t *testing.T, buf *bytes.Buffer) []accessRecord {
	t.Helper()
	var out []accessRecord
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec accessRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line is not JSON: %v\n%s", err, line)
		}
		if rec.Msg == "request" {
			out = append(out, rec)
		}
	}
	return out
}

// TestRequestIDLifecycle: IDs are echoed on every response; client IDs
// and traceparent trace-ids are adopted; garbage is replaced; and every
// 4xx/5xx lands in exactly one access-log record carrying its ID.
func TestRequestIDLifecycle(t *testing.T) {
	var logBuf bytes.Buffer
	srv := newPublished(Config{
		AccessLog: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	do := func(header, value string) (*http.Response, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/lookup?ip=junk", nil)
		if header != "" {
			req.Header.Set(header, value)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp, resp.Header.Get(obs.RequestIDHeader)
	}

	// Generated: present, and unique per request.
	_, gen1 := do("", "")
	_, gen2 := do("", "")
	if gen1 == "" || gen1 == gen2 {
		t.Fatalf("generated IDs must be unique and non-empty: %q %q", gen1, gen2)
	}
	// Adopted verbatim from X-Request-Id.
	if _, id := do(obs.RequestIDHeader, "client-id-42"); id != "client-id-42" {
		t.Errorf("client ID not adopted: %q", id)
	}
	// Adopted from a W3C traceparent trace-id.
	tid := "4bf92f3577b34da6a3ce929d0e0e4736"
	if _, id := do("traceparent", "00-"+tid+"-00f067aa0ba902b7-01"); id != tid {
		t.Errorf("traceparent trace-id not adopted: %q", id)
	}
	// Hostile IDs are replaced, not propagated.
	if _, id := do(obs.RequestIDHeader, "bad id with spaces"); strings.Contains(id, " ") || id == "" {
		t.Errorf("hostile ID propagated: %q", id)
	}

	// Every 4xx above appears in exactly one access-log record.
	recs := decodeAccessLog(t, &logBuf)
	if len(recs) != 5 {
		t.Fatalf("access log has %d records, want 5 (one per 400):\n%s", len(recs), logBuf.String())
	}
	byID := map[string]int{}
	for _, rec := range recs {
		byID[rec.ID]++
		if rec.Status != http.StatusBadRequest || rec.Path != "/lookup" || rec.Plane != "data" {
			t.Errorf("bad record: %+v", rec)
		}
		if rec.Generation != 1 {
			t.Errorf("generation = %d, want 1", rec.Generation)
		}
	}
	for _, id := range []string{gen1, gen2, "client-id-42", tid} {
		if byID[id] != 1 {
			t.Errorf("ID %q appears in %d records, want exactly 1", id, byID[id])
		}
	}
	if recs[2].IDAdopted != true || recs[0].IDAdopted != false {
		t.Errorf("id_adopted flags wrong: %+v", recs)
	}
}

// TestAccessLogSampling: 2xx records obey the 1-in-N sample; non-2xx are
// always logged regardless.
func TestAccessLogSampling(t *testing.T) {
	var logBuf bytes.Buffer
	srv := newPublished(Config{
		AccessLog: slog.New(slog.NewJSONHandler(&logBuf, nil)),
		LogSample: 4,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 8; i++ {
		get(t, ts.URL+"/lookup?ip=10.0.0.7")
	}
	get(t, ts.URL+"/lookup?ip=junk")

	recs := decodeAccessLog(t, &logBuf)
	twoxx, fourxx := 0, 0
	for _, rec := range recs {
		switch {
		case rec.Status == http.StatusOK:
			twoxx++
		case rec.Status == http.StatusBadRequest:
			fourxx++
		}
	}
	if twoxx != 2 {
		t.Errorf("sampled 2xx records = %d, want 2 (8 requests, 1-in-4)", twoxx)
	}
	if fourxx != 1 {
		t.Errorf("4xx records = %d, want 1 (never sampled away)", fourxx)
	}
}

// TestShedCarriesIDAndCause: a 429 response carries a request ID, and
// its access-log record names the shed cause.
func TestShedCarriesIDAndCause(t *testing.T) {
	var logBuf bytes.Buffer
	srv, release := blockingServer(Config{
		MaxInflight: 1, MaxQueue: 1,
		QueueTimeout: 10 * time.Second, RequestTimeout: 10 * time.Second,
		AccessLog: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	inflight := startLookup(ts.URL)
	waitInflight(t, srv, 1)
	queued := startLookup(ts.URL)
	waitQueued(t, srv, 1)

	resp, err := http.Get(ts.URL + "/lookup?ip=10.0.0.7")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	close(release)
	drainLookup(inflight, queued)

	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	shedID := resp.Header.Get(obs.RequestIDHeader)
	if shedID == "" {
		t.Fatal("429 response missing X-Request-Id")
	}
	found := 0
	for _, rec := range decodeAccessLog(t, &logBuf) {
		if rec.ID != shedID {
			continue
		}
		found++
		if rec.Status != http.StatusTooManyRequests || rec.Cause != "shed" {
			t.Errorf("shed record wrong: %+v", rec)
		}
	}
	if found != 1 {
		t.Errorf("shed ID %q in %d records, want exactly 1", shedID, found)
	}
}

// TestTraceSampledSpans: a 1-in-1 trace sample records the request,
// index-lookup and encode stages, each named with the request ID.
func TestTraceSampledSpans(t *testing.T) {
	reg := telemetry.New()
	srv := New(Config{TraceSample: 1}, reg)
	srv.Publish(tinyDataset(), "test:tiny")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/lookup?ip=10.0.0.7")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get(obs.RequestIDHeader)

	stages := map[string]bool{}
	for _, sp := range reg.Spans() {
		base, labels := telemetry.ParseName(sp.Name)
		for _, l := range labels {
			if l.Key == "req" && l.Value == id {
				stages[base] = true
			}
		}
	}
	for _, want := range []string{"request", "index-lookup", "encode"} {
		if !stages[want] {
			t.Errorf("stage span %q missing for request %s (have %v)", want, id, stages)
		}
	}
}

// TestSLOGaugesOnMetrics keeps README's alert rules in step with what the
// server exports: it reads the rule block from README.md, serves a mix
// with a 5xx, a 429 and a 400 in it, and requires every geoserve_* series
// selector in the rules to select at least one scraped sample.
func TestSLOGaugesOnMetrics(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rules, ok := strings.Cut(string(readme), "```yaml\ngroups:")
	if !ok {
		t.Fatal("README.md has no ```yaml groups: rule block")
	}
	rules, _, _ = strings.Cut(rules, "```")

	srv, release := blockingServer(Config{
		MaxInflight: 1, MaxQueue: 1,
		QueueTimeout: 10 * time.Second, RequestTimeout: 10 * time.Second,
	})
	srv.cfg.Prof.ServeFailProb = 1 // the stalled lookups answer 503
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
	if a, b := <-inflight, <-queued; a != http.StatusServiceUnavailable || b != http.StatusServiceUnavailable {
		t.Fatalf("stalled lookups answered %d and %d, want 503", a, b)
	}
	get(t, ts.URL+"/lookup?ip=junk")
	waitUntil(t, "three latency observations", func() bool { return srv.latencyMs.Count() == 3 })
	sc := scrapeMetrics(t, ts.URL)

	selectors := regexp.MustCompile(`(geoserve_[a-z_]+)(\{[^}]*\})?`).FindAllStringSubmatch(rules, -1)
	if len(selectors) == 0 {
		t.Fatal("rule block selects no geoserve_* series")
	}
	matcher := regexp.MustCompile(`(\w+)\s*(=~|!~|!=|=)\s*"([^"]*)"`)
	for _, sel := range selectors {
		matchers := matcher.FindAllStringSubmatch(sel[2], -1)
		found := false
		for _, smp := range sc.Find(sel[1], nil) {
			all := true
			for _, m := range matchers {
				v, has := smp.Labels[m[1]]
				var hit bool
				switch m[2] {
				case "=":
					hit = has && v == m[3]
				case "!=":
					hit = has && v != m[3]
				case "=~":
					hit = has && regexp.MustCompile("^(?:"+m[3]+")$").MatchString(v)
				case "!~":
					hit = has && !regexp.MustCompile("^(?:"+m[3]+")$").MatchString(v)
				}
				all = all && hit
			}
			if all {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("rule selector %s selects no sample on /metrics", sel[0])
		}
	}
}

// TestLedgerPlaneSplit: control-plane answers do not pollute the
// data-plane ledger geobench accounts against.
func TestLedgerPlaneSplit(t *testing.T) {
	srv := newPublished(Config{})
	h := srv.Handler()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/lookup?ip=10.0.0.7", nil))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))

	if got := srv.status.Counter(200, obs.PlaneData).Value(); got != 1 {
		t.Errorf("data-plane 200s = %d, want 1", got)
	}
	if got := srv.status.Counter(200, obs.PlaneControl).Value(); got != 2 {
		t.Errorf("control-plane 200s = %d, want 2", got)
	}
}

// TestSLOShedExclusion: a shed (429) moves neither geoserve.latency_ms nor
// the 5xx ledger, so overload alone cannot spend either error budget; the
// requests that were admitted are timed, queue wait included.
func TestSLOShedExclusion(t *testing.T) {
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
	for i := 0; i < 5; i++ {
		if status, _ := get(t, ts.URL+"/lookup?ip=10.0.0.7"); status != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", status)
		}
	}
	if got := srv.status.Counter(http.StatusTooManyRequests, obs.PlaneData).Value(); got != 5 {
		t.Errorf("429 ledger = %d, want 5", got)
	}
	if got := srv.latencyMs.Count(); got != 0 {
		t.Errorf("latency observations after 5 sheds = %d, want 0", got)
	}
	close(release)
	drainLookup(inflight, queued)
	waitUntil(t, "the admitted pair timed", func() bool { return srv.latencyMs.Count() == 2 })
	for code := 500; code < 600; code++ {
		if got := srv.status.Counter(code, obs.PlaneData).Value(); got != 0 {
			t.Errorf("%d ledger = %d after sheds, want 0", code, got)
		}
	}
}
