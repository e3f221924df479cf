package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/faults"
	"geoloc/internal/router"
	"geoloc/internal/serve"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

var (
	tinyOnce         sync.Once
	tinyFull, tinyV2 *dataset.Dataset
)

// tinyArtifacts compiles the two variants of the tiny campaign once: the
// full artifact (with unsanitized records) and the sanitized-only one.
func tinyArtifacts() (*dataset.Dataset, *dataset.Dataset) {
	tinyOnce.Do(func() {
		c := core.NewCampaign(world.TinyConfig())
		tinyFull = dataset.Compile(c, dataset.Options{IncludeUnsanitized: true})
		c2 := core.NewCampaign(world.TinyConfig())
		tinyV2 = dataset.Compile(c2, dataset.Options{})
	})
	return tinyFull, tinyV2
}

// harness writes both artifacts to disk and serves the first over an
// httptest server with the given serve config.
func harness(t *testing.T, cfg serve.Config) (baseURL, pathA, pathB string) {
	t.Helper()
	dsA, dsB := tinyArtifacts()
	dir := t.TempDir()
	pathA = filepath.Join(dir, "a.geodset")
	pathB = filepath.Join(dir, "b.geodset")
	if err := dsA.Write(pathA); err != nil {
		t.Fatal(err)
	}
	if err := dsB.Write(pathB); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(cfg, telemetry.New())
	srv.Publish(dsA, pathA)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, pathA, pathB
}

// TestRunCleanSwap is the in-process version of the CI load-smoke job: a
// mixed load with one mid-run hot-swap must come back with zero
// violations and a bumped generation.
func TestRunCleanSwap(t *testing.T) {
	base, pathA, pathB := harness(t, serve.Config{AdminToken: "tok"})
	rep, err := Run(Config{
		BaseURL:      base,
		DatasetPath:  pathA,
		Requests:     600,
		Workers:      6,
		SwapAfter:    300,
		SwapTo:       pathB,
		AdminToken:   "tok",
		WaitReady:    5 * time.Second,
		Timeout:      10 * time.Second,
		MetricsCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations on a clean run: %v", rep.Violations)
	}
	if !rep.MetricsChecked {
		t.Fatal("metrics accounting pass did not run to a clean verdict")
	}
	for code, n := range rep.Statuses {
		if rep.ServerStatuses[code] != n {
			t.Errorf("server ledger %s = %d, client saw %d", code, rep.ServerStatuses[code], n)
		}
	}
	if !rep.SwapPerformed || rep.GenAfter != 2 || rep.GenBefore != 1 {
		t.Fatalf("swap not recorded: performed=%v gen %d -> %d", rep.SwapPerformed, rep.GenBefore, rep.GenAfter)
	}
	dsA, dsB := tinyArtifacts()
	if rep.RecordsBefore != len(dsA.Records) || rep.RecordsAfter != len(dsB.Records) {
		t.Errorf("records %d -> %d, want %d -> %d",
			rep.RecordsBefore, rep.RecordsAfter, len(dsA.Records), len(dsB.Records))
	}
	if rep.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", rep.Dropped)
	}
	total := 0
	for _, n := range rep.Statuses {
		total += n
	}
	if total != rep.Requests {
		t.Errorf("ledger sums to %d, want %d", total, rep.Requests)
	}
	// Garbage draws must exist and all land as 400.
	if rep.Statuses["400"] == 0 {
		t.Error("no 400s: the garbage mix never fired")
	}
	if rep.Statuses["200"] == 0 || rep.Statuses["404"] == 0 {
		t.Errorf("mix missing hits or misses: %v", rep.Statuses)
	}
	if rep.Admitted == 0 || rep.P999Ms < rep.P50Ms {
		t.Errorf("percentiles look wrong: admitted=%d p50=%f p999=%f", rep.Admitted, rep.P50Ms, rep.P999Ms)
	}
}

// TestRunDetectsMissingSwapBump pins the harness's teeth: pointing the
// swap at a corrupt artifact must surface as a violation, not a clean
// run.
func TestRunDetectsMissingSwapBump(t *testing.T) {
	base, pathA, _ := harness(t, serve.Config{AdminToken: "tok"})
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.geodset")
	if err := os.WriteFile(bad, []byte("definitely not a dataset"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		BaseURL:     base,
		DatasetPath: pathA,
		Requests:    120,
		Workers:     4,
		SwapAfter:   60,
		SwapTo:      bad,
		AdminToken:  "tok",
		Timeout:     10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("corrupt swap target produced a clean run")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "hot-swap failed") {
			found = true
		}
	}
	if !found {
		t.Errorf("violations missing the swap failure: %v", rep.Violations)
	}
	if rep.SwapPerformed {
		t.Error("SwapPerformed = true for a failed swap")
	}
}

// TestRunOverloadSheds drives far more workers than the server admits
// and checks overload degrades to clean 429s: shed requests exist, and
// every answer is a designed status.
func TestRunOverloadSheds(t *testing.T) {
	base, pathA, _ := harness(t, serve.Config{
		Prof:         &faults.Profile{Name: "stall", ServeStallProb: 1, ServeStallMaxMs: 3},
		MaxInflight:  2,
		MaxQueue:     2,
		QueueTimeout: 2 * time.Millisecond,
		RetryAfter:   time.Second,
	})
	rep, err := Run(Config{
		BaseURL:      base,
		DatasetPath:  pathA,
		Requests:     400,
		Workers:      32,
		ExpectShed:   true,
		MaxP999Ms:    30000,
		Timeout:      30 * time.Second,
		MetricsCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v (statuses %v)", rep.Violations, rep.Statuses)
	}
	if rep.Sheds == 0 {
		t.Fatal("overload run shed nothing")
	}
	if rep.Dropped != 0 {
		t.Errorf("dropped = %d, want 0 even under overload", rep.Dropped)
	}
	if !rep.MetricsChecked {
		t.Error("accounting must stay exact under overload (sheds included)")
	}
}

// TestLedgerMismatches pins the teeth of the accounting check: any
// divergence between the client and server ledgers — missing counts,
// extra counts, codes only one side saw — must surface.
func TestLedgerMismatches(t *testing.T) {
	client := map[string]int{"200": 10, "404": 3, "429": 2}
	exact := map[string]int64{"200": 10, "404": 3, "429": 2}
	if got := ledgerMismatches(client, exact); len(got) != 0 {
		t.Fatalf("exact match reported mismatches: %v", got)
	}
	cases := map[string]map[string]int64{
		"server lost a request": {"200": 9, "404": 3, "429": 2},
		"server counted extra":  {"200": 10, "404": 3, "429": 2, "504": 1},
		"client-only code":      {"200": 10, "404": 3},
		"code swapped":          {"200": 10, "404": 2, "429": 3},
	}
	for name, server := range cases {
		if got := ledgerMismatches(client, server); len(got) == 0 {
			t.Errorf("%s: not detected", name)
		}
	}
}

// TestLedgerDelta pins the before/after subtraction, including counters
// that only exist on one side of the run.
func TestLedgerDelta(t *testing.T) {
	before := map[string]int64{"200": 100, "404": 5}
	after := map[string]int64{"200": 150, "404": 5, "429": 7}
	delta := ledgerDelta(before, after)
	want := map[string]int64{"200": 50, "429": 7}
	if len(delta) != len(want) {
		t.Fatalf("delta = %v, want %v", delta, want)
	}
	for code, n := range want {
		if delta[code] != n {
			t.Errorf("delta[%s] = %d, want %d", code, delta[code], n)
		}
	}
}

// TestMixDeterminism pins the determinism contract: the one mix yields
// the same request payloads on every run.
func TestMixDeterminism(t *testing.T) {
	dsA, _ := tinyArtifacts()
	m1, err := newMixer(dsA)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := newMixer(dsA)
	if err != nil {
		t.Fatal(err)
	}
	sawClass := map[int]bool{}
	for i := 0; i < 100; i++ {
		c1, c2 := m1.class(i), m2.class(i)
		if c1 != c2 {
			t.Fatalf("class(%d) differs: %d vs %d", i, c1, c2)
		}
		sawClass[c1] = true
		switch c1 {
		case classHit:
			if m1.hitIP(i, 0) != m2.hitIP(i, 0) {
				t.Fatalf("hitIP(%d) not deterministic", i)
			}
		case classMiss:
			a := m1.missIP(i, 0)
			if a != m2.missIP(i, 0) {
				t.Fatalf("missIP(%d) not deterministic", i)
			}
		case classGarbage:
			if m1.garbage(i) != m2.garbage(i) {
				t.Fatalf("garbage(%d) not deterministic", i)
			}
		case classBatch:
			if string(m1.batchBody(i)) != string(m2.batchBody(i)) {
				t.Fatalf("batchBody(%d) not deterministic", i)
			}
		}
	}
	for c := classHit; c <= classBatch; c++ {
		if !sawClass[c] {
			t.Errorf("class %d never drawn in 100 requests", c)
		}
	}
}

// TestPercentile pins the nearest-rank convention.
func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %f, want 0", got)
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.99, 10}, {0.999, 10}, {0.1, 1}}
	for _, c := range cases {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %f, want %f", c.q, got, c.want)
		}
	}
}

// TestHistQuantile checks the fixed-bucket latency histogram against
// the exact nearest-rank oracle: quantiles must stay within the bucket
// that actually holds the rank, never leave [min, max], and be monotone
// in q.
func TestHistQuantile(t *testing.T) {
	bounds := telemetry.LatencyBoundsMs
	if h := newLatencyHist(bounds); h.quantile(0.5) != 0 {
		t.Errorf("empty histogram quantile = %f, want 0", h.quantile(0.5))
	}

	h := newLatencyHist(bounds)
	h.observe(3.25)
	for _, q := range []float64{0.01, 0.5, 0.999} {
		if got := h.quantile(q); got != 3.25 {
			t.Errorf("single-sample quantile(%v) = %f, want 3.25", q, got)
		}
	}

	// A deterministic skewed sample set: mostly sub-millisecond with a
	// heavy tail, the shape a latency distribution actually has.
	h = newLatencyHist(bounds)
	var sorted []float64
	for i := 0; i < 5000; i++ {
		ms := 0.05 + float64(i%97)*0.01 // bulk: 0.05..1.01
		if i%100 == 0 {
			ms = 40 + float64(i%7)*30 // tail: 40..220
		}
		h.observe(ms)
		sorted = append(sorted, ms)
	}
	sort.Float64s(sorted)

	prev := -1.0
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		got := h.quantile(q)
		if got < prev {
			t.Errorf("quantile not monotone: q=%v gave %f after %f", q, got, prev)
		}
		prev = got
		if got < sorted[0] || got > sorted[len(sorted)-1] {
			t.Errorf("quantile(%v) = %f outside observed range [%f, %f]",
				q, got, sorted[0], sorted[len(sorted)-1])
		}
		// The histogram answer and the exact answer must fall in the same
		// bucket: bucketing is the only precision given up.
		exact := percentile(sorted, q)
		if bi, be := sort.SearchFloat64s(bounds, got), sort.SearchFloat64s(bounds, exact); bi != be {
			t.Errorf("quantile(%v) = %f in bucket %d, exact %f in bucket %d", q, got, bi, exact, be)
		}
	}
}

// chaosHarness stands up a LocalFleet behind a router and writes the
// tiny artifact to disk — the in-process version of the CI chaos-smoke
// topology.
func chaosHarness(t *testing.T, n int, rcfg router.Config) (baseURL, path string) {
	t.Helper()
	ds, _ := tinyArtifacts()
	dir := t.TempDir()
	path = filepath.Join(dir, "a.geodset")
	if err := ds.Write(path); err != nil {
		t.Fatal(err)
	}
	fleet, err := router.NewLocalFleet(n, ds, "test:tiny", serve.Config{})
	if err != nil {
		t.Fatalf("NewLocalFleet: %v", err)
	}
	t.Cleanup(fleet.Close)
	rcfg.ReplicaURLs = fleet.Addrs()
	rcfg.Controller = fleet
	rcfg.AdminToken = "tok"
	rcfg.Seed = ds.Hdr.Seed
	if rcfg.ProbeInterval == 0 {
		rcfg.ProbeInterval = 10 * time.Millisecond
	}
	if rcfg.UpstreamTimeout == 0 {
		rcfg.UpstreamTimeout = 2 * time.Second
	}
	rt, err := router.New(rcfg, telemetry.New())
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, path
}

// TestRunChaosFailover is the in-process replica-chaos proof with a
// fleet of four: killing the hot replica mid-run must be fully absorbed
// by the ring — zero drops, zero 503s, at least one failed-over answer —
// and the router's failover counters must move by exactly what the
// client's response headers say.
func TestRunChaosFailover(t *testing.T) {
	base, path := chaosHarness(t, 4, router.Config{})
	rep, err := Run(Config{
		BaseURL:      base,
		DatasetPath:  path,
		Requests:     400,
		Workers:      6,
		AdminToken:   "tok",
		Timeout:      15 * time.Second,
		WaitReady:    5 * time.Second,
		Chaos:        true,
		MetricsCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v (statuses %v)", rep.Violations, rep.Statuses)
	}
	if !rep.ChaosPerformed {
		t.Fatal("chaos schedule did not complete")
	}
	if rep.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0: the router must absorb the crash", rep.Dropped)
	}
	if rep.ClientFailovers == 0 {
		t.Fatal("no answer was failed over — the kill was not absorbed by failover")
	}
	if rep.ServerFailovers != int64(rep.ClientFailovers) {
		t.Fatalf("failover accounting: client %d, server %d", rep.ClientFailovers, rep.ServerFailovers)
	}
	if rep.Statuses["503"] != 0 {
		t.Fatalf("three live replicas must absorb a single crash without 503s, got %d", rep.Statuses["503"])
	}
	if !rep.MetricsChecked {
		t.Fatal("router data-plane ledger did not match the client ledger")
	}
	if rep.KillAtSec <= 0 || rep.ReadmitAtSec <= rep.KillAtSec {
		t.Fatalf("outage window looks wrong: kill %.3fs, readmit %.3fs", rep.KillAtSec, rep.ReadmitAtSec)
	}
}

// TestRunChaosBoundedFailureDomain is the fleet-of-one half of the
// proof: with no other replica to ask, killing the only one must degrade
// to fast 503s with Retry-After, confined to the kill → readmission
// window, with one range_unavailable increment each — and never a drop.
func TestRunChaosBoundedFailureDomain(t *testing.T) {
	base, path := chaosHarness(t, 1, router.Config{})
	rep, err := Run(Config{
		BaseURL:      base,
		DatasetPath:  path,
		Requests:     400,
		Workers:      6,
		AdminToken:   "tok",
		Timeout:      15 * time.Second,
		WaitReady:    5 * time.Second,
		Chaos:        true,
		MetricsCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v (statuses %v)", rep.Violations, rep.Statuses)
	}
	if !rep.ChaosPerformed {
		t.Fatal("chaos schedule did not complete")
	}
	if rep.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0 even with no live replica", rep.Dropped)
	}
	if rep.Statuses["503"] == 0 {
		t.Fatal("killing a fleet of one produced no 503: the degraded path never fired")
	}
	if !rep.MetricsChecked {
		t.Fatal("router data-plane ledger did not match the client ledger")
	}
}

// TestChaosFinishExpectsWhatTheFleetImplies: the chaos verdict reads its
// expectation from the fleet size alone. A completed outage on four
// replicas with no failed-over answer is a violation, as is one on a
// fleet of one with no in-window 503; the outage each size should produce
// is clean.
func TestChaosFinishExpectsWhatTheFleetImplies(t *testing.T) {
	const killNs, readmitNs = 1e9, 2e9
	ok := sample{status: 200, t0Ns: 1.2e9, t1Ns: 1.3e9}
	failedOver := sample{status: 200, t0Ns: 1.2e9, t1Ns: 1.3e9, failovers: 1}
	unavailable := sample{status: 503, t0Ns: 1.2e9, t1Ns: 1.3e9}
	for _, tc := range []struct {
		name     string
		replicas int
		samples  []sample
		want     string // a violation containing this; "" = clean
	}{
		{"4 replicas, nothing failed over", 4, []sample{ok, ok}, "zero failed-over answers"},
		{"4 replicas, a failover", 4, []sample{ok, failedOver}, ""},
		{"1 replica, no 503", 1, []sample{ok, ok}, "zero in-window 503s"},
		{"1 replica, an in-window 503", 1, []sample{ok, unavailable}, ""},
	} {
		c := &chaosRun{cfg: Config{Requests: 400}, replicas: tc.replicas}
		c.killTNs.Store(killNs)
		c.readmitTNs.Store(readmitNs)
		rep := &Report{Statuses: map[string]int{}}
		c.finish(rep, tc.samples)
		if !rep.ChaosPerformed {
			t.Errorf("%s: chaos schedule not recorded as performed", tc.name)
		}
		switch {
		case tc.want == "" && len(rep.Violations) != 0:
			t.Errorf("%s: violations %v, want none", tc.name, rep.Violations)
		case tc.want != "" && (len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], tc.want)):
			t.Errorf("%s: violations %v, want one naming %q", tc.name, rep.Violations, tc.want)
		}
	}
}
