// The load-proof engine: a deterministic closed-loop generator that
// drives a live geoserve and renders a verdict.
//
// Determinism contract: the SET of requests is a pure function of (seed,
// requests, mix) — request i's class (hit / miss / garbage) and payload
// are rhash draws keyed by i, never by time or scheduling. Workers claim
// indices from an atomic cursor, so which worker sends which request
// varies run to run, but the multiset of requests on the wire does not.
// Timing (and therefore the latency histogram) is measured, not
// simulated — this is the one tool in the repo whose job is wall-clock
// truth.
//
// The verdict is a per-status ledger plus a violations list: transport
// errors (dropped requests), designed-status violations (a valid IP must
// answer 200/404/429 and nothing else), a missing swap-generation bump,
// an overload run that never shed, or a p999 above the bound.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"geoloc/internal/dataset"
	"geoloc/internal/ipaddr"
	"geoloc/internal/rhash"
	"geoloc/internal/telemetry"
)

// Request classes.
const (
	classHit     = 0 // an address the baseline artifact covers
	classMiss    = 1 // a valid address no baseline record covers
	classGarbage = 2 // input that must be rejected with 400
	classBatch   = 3 // a POST /batch of hit+miss addresses
)

// Config tunes one load run.
type Config struct {
	// BaseURL is the geoserve instance under test, e.g. http://127.0.0.1:8080.
	BaseURL string
	// DatasetPath is the baseline artifact; the hit/miss mix is derived
	// from its records.
	DatasetPath string
	// Requests is the total request count across all workers.
	Requests int
	// Workers is the fixed closed-loop worker count.
	Workers int
	// Seed keys every mix draw.
	Seed uint64
	// HitFrac/MissFrac/GarbageFrac weight the request classes; they are
	// normalized, so 8/1/1 and 0.8/0.1/0.1 mean the same mix.
	HitFrac, MissFrac, GarbageFrac float64
	// BatchEvery makes every Nth request a POST /batch of BatchSize
	// addresses (0 disables batches).
	BatchEvery int
	// BatchSize is the number of addresses per batch request (0 = 8).
	BatchSize int

	// SwapAfter triggers one artifact hot-swap (POST /admin/reload to
	// SwapTo) once that many requests have completed; 0 disables the
	// swap. The swap runs concurrently with the remaining load.
	SwapAfter int
	// SwapTo is the artifact path sent to /admin/reload.
	SwapTo string
	// AdminToken authenticates the reload.
	AdminToken string

	// Timeout is the per-request client timeout; requests exceeding it
	// count as dropped.
	Timeout time.Duration
	// WaitReady polls /readyz for up to this long before starting
	// (0 = no wait).
	WaitReady time.Duration

	// ExpectShed makes a run with zero 429s a violation (overload runs
	// must prove shedding happens, not that the server kept up).
	ExpectShed bool
	// MaxP999Ms bounds the p999 latency of admitted (200/404) requests;
	// 0 disables the check.
	MaxP999Ms float64
	// Allow503 admits 503 as a designed answer for valid addresses (runs
	// against a fault-injecting profile).
	Allow503 bool

	// MetricsCheck scrapes /metrics before and after the run and requires
	// the server's data-plane status ledger to move by exactly the
	// client-side ledger and, against a single geoserve, its latency
	// histogram to count exactly the non-429 answers (metrics.go). Any
	// discrepancy, malformed exposition, or missing swap-counter increment
	// is a violation.
	MetricsCheck bool

	// Chaos turns on the replica-chaos proof (chaos.go): the target is a
	// geoserve -router fleet, one replica is killed after KillAfter
	// completed requests and revived after RestartAfter, and the verdict
	// additionally requires: zero dropped requests throughout, every 503
	// confined to the outage window and carrying Retry-After, the outage
	// actually exercised — a failed-over answer when the router's
	// /healthz lists more than one replica, an in-window 503 when it
	// lists one — and (with MetricsCheck) the router's failover counters
	// matching the client-observed X-Router-* headers exactly.
	Chaos bool
	// KillAfter/RestartAfter are completed-request thresholds for the
	// kill and revival (defaults Requests/4 and Requests/2).
	KillAfter, RestartAfter int
}

// Report is the run verdict, written as JSON and summarized on stdout.
type Report struct {
	Requests int            `json:"requests"`
	Workers  int            `json:"workers"`
	Seed     uint64         `json:"seed"`
	Elapsed  float64        `json:"elapsed_sec"`
	Statuses map[string]int `json:"statuses"`
	// Dropped counts transport-level failures: connection errors and
	// client timeouts. The zero-dropped guarantee is the headline.
	Dropped int `json:"dropped"`
	// ValidViolations counts valid-address requests answered outside the
	// designed set; GarbageViolations counts garbage not rejected 400.
	ValidViolations   int `json:"valid_violations"`
	GarbageViolations int `json:"garbage_violations"`

	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	// Admitted is the sample count behind the percentiles (200/404
	// answers, i.e. requests that did real work).
	Admitted int `json:"admitted"`
	Sheds    int `json:"sheds"`

	SwapPerformed bool   `json:"swap_performed"`
	GenBefore     uint64 `json:"generation_before"`
	GenAfter      uint64 `json:"generation_after"`
	RecordsBefore int    `json:"records_before"`
	RecordsAfter  int    `json:"records_after"`

	// MetricsChecked reports the /metrics accounting pass ran and the
	// server-side data-plane ledger (ServerStatuses) matched the client
	// ledger exactly. MissingIDs counts 4xx/5xx answers without an
	// X-Request-Id header (every failure must be joinable to a log line).
	MetricsChecked bool           `json:"metrics_checked,omitempty"`
	ServerStatuses map[string]int `json:"server_statuses,omitempty"`
	MissingIDs     int            `json:"missing_request_ids,omitempty"`

	// Chaos-proof verdict (chaos.go): the victim replica, the outage
	// window in run-relative seconds, and both sides of the failover
	// accounting — client-observed header sums vs router counter deltas.
	ChaosPerformed  bool    `json:"chaos_performed,omitempty"`
	ChaosReplica    int     `json:"chaos_replica,omitempty"`
	KillAtSec       float64 `json:"kill_at_sec,omitempty"`
	ReadmitAtSec    float64 `json:"readmit_at_sec,omitempty"`
	ClientFailovers int     `json:"client_failovers,omitempty"`
	ServerFailovers int64   `json:"server_failovers,omitempty"`

	// Violations is empty on a clean run; -strict turns any entry into a
	// non-zero exit.
	Violations []string `json:"violations"`
}

// Mix draw label namespaces.
var (
	kClass    = rhash.HashString("geobench/class")
	kHitRec   = rhash.HashString("geobench/hitrec")
	kHitHost  = rhash.HashString("geobench/hithost")
	kMissAddr = rhash.HashString("geobench/missaddr")
	kGarbage  = rhash.HashString("geobench/garbage")
)

// garbageInputs is the rejection corpus: every entry must draw a 400.
var garbageInputs = []string{
	"banana",
	"10.0.0.300",
	"999.999.999.999",
	"10.0.0",
	"",
	"1.2.3.4.5",
	"07.1.2.3",
	"10.0.0.-1",
	" 10.0.0.1",
}

// mixer derives request payloads from the seed and the baseline
// artifact.
type mixer struct {
	cfg  Config
	ds   *dataset.Dataset
	hit  float64 // class thresholds after normalization
	miss float64
}

func newMixer(cfg Config, ds *dataset.Dataset) (*mixer, error) {
	if len(ds.Records) == 0 {
		return nil, fmt.Errorf("baseline dataset has no records; cannot derive a hit mix")
	}
	total := cfg.HitFrac + cfg.MissFrac + cfg.GarbageFrac
	if total <= 0 {
		return nil, fmt.Errorf("hit+miss+garbage fractions must be positive")
	}
	return &mixer{
		cfg:  cfg,
		ds:   ds,
		hit:  cfg.HitFrac / total,
		miss: (cfg.HitFrac + cfg.MissFrac) / total,
	}, nil
}

// class returns request i's class.
func (m *mixer) class(i int) int {
	if m.cfg.BatchEvery > 0 && i%m.cfg.BatchEvery == 0 {
		return classBatch
	}
	u := rhash.UnitFloat(m.cfg.Seed, kClass, uint64(i))
	switch {
	case u < m.hit:
		return classHit
	case u < m.miss:
		return classMiss
	default:
		return classGarbage
	}
}

// hitIP returns a deterministic address inside a baseline record, keyed
// by (i, salt).
func (m *mixer) hitIP(i, salt int) string {
	r := m.ds.Records[rhash.Hash(m.cfg.Seed, kHitRec, uint64(i), uint64(salt))%uint64(len(m.ds.Records))]
	host := byte(rhash.Hash(m.cfg.Seed, kHitHost, uint64(i), uint64(salt)))
	return r.Prefix.Addr(host).String()
}

// missIP returns a deterministic valid address no baseline record
// covers (bounded rejection sampling against the baseline).
func (m *mixer) missIP(i, salt int) string {
	for try := 0; ; try++ {
		a := ipaddr.Addr(uint32(rhash.Hash(m.cfg.Seed, kMissAddr, uint64(i), uint64(salt), uint64(try))))
		if _, covered := m.ds.Find(a); !covered {
			return a.String()
		}
		if try > 256 {
			// The baseline covers essentially the whole space; a hit is
			// still a valid request, just not a guaranteed 404.
			return a.String()
		}
	}
}

// garbage returns a deterministic rejection-corpus entry.
func (m *mixer) garbage(i int) string {
	return garbageInputs[rhash.Hash(m.cfg.Seed, kGarbage, uint64(i))%uint64(len(garbageInputs))]
}

// batchBody builds the /batch JSON for request i: half hits, half
// misses.
func (m *mixer) batchBody(i int) []byte {
	n := m.cfg.BatchSize
	if n <= 0 {
		n = 8
	}
	ips := make([]string, 0, n)
	for k := 0; k < n; k++ {
		if k%2 == 0 {
			ips = append(ips, m.hitIP(i, k))
		} else {
			ips = append(ips, m.missIP(i, k))
		}
	}
	body, _ := json.Marshal(struct {
		IPs []string `json:"ips"`
	}{ips})
	return body
}

// sample is one request's outcome. Index-addressed into a shared slice,
// so workers never contend and the result set is complete by
// construction.
type sample struct {
	class   int
	status  int // 0 = dropped (transport error or client timeout)
	ms      float64
	swapGen uint64 // set on the request that performed the swap
	// noID marks a 4xx/5xx answer missing the X-Request-Id header.
	noID bool

	// Chaos-proof fields: when the request started and finished relative
	// to run start (for the outage-window check), the router's failover
	// count from X-Router-Failovers, and whether a 503 arrived without its
	// Retry-After hint.
	t0Ns, t1Ns   int64
	failovers    int
	noRetryAfter bool
}

// versionInfo mirrors geoserve's /version document.
type versionInfo struct {
	Generation uint64 `json:"generation"`
	Records    int    `json:"records"`
	Source     string `json:"source"`
}

// Run executes the load run and renders the verdict. Run never fails on
// a misbehaving server — that becomes a violation in the report — only
// on setup errors (unloadable baseline, unreachable server, bad config).
func Run(cfg Config) (*Report, error) {
	if cfg.Requests <= 0 || cfg.Workers <= 0 {
		return nil, fmt.Errorf("requests (%d) and workers (%d) must be positive", cfg.Requests, cfg.Workers)
	}
	// The bench is a client-side oracle, so the baseline artifact is simply
	// materialized in RAM — the bounded-memory claim belongs to the server
	// under test.
	ds, err := dataset.Load(cfg.DatasetPath)
	if err != nil {
		return nil, fmt.Errorf("baseline dataset: %w", err)
	}
	mix, err := newMixer(cfg, ds)
	if err != nil {
		return nil, err
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Workers * 2,
			MaxIdleConnsPerHost: cfg.Workers,
		},
	}

	if cfg.WaitReady > 0 {
		if err := waitReady(client, cfg.BaseURL, cfg.WaitReady); err != nil {
			return nil, err
		}
	}

	rep := &Report{
		Requests: cfg.Requests,
		Workers:  cfg.Workers,
		Seed:     cfg.Seed,
		Statuses: map[string]int{},
	}
	before, err := fetchVersion(client, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("server unreachable: %w", err)
	}
	rep.GenBefore = before.Generation
	rep.RecordsBefore = before.Records

	var beforeCounts serverCounts
	if cfg.MetricsCheck {
		if beforeCounts, err = scrapeLedger(client, cfg.BaseURL, statusMetric(cfg)); err != nil {
			return nil, fmt.Errorf("metrics scrape before run: %w", err)
		}
	}

	var ch *chaosRun
	var beforeRouter routerCounters
	if cfg.Chaos {
		if ch, err = newChaosRun(cfg, client, ds); err != nil {
			return nil, err
		}
		if cfg.MetricsCheck {
			if beforeRouter, err = scrapeRouterCounters(client, cfg.BaseURL); err != nil {
				return nil, fmt.Errorf("router counter scrape before run: %w", err)
			}
		}
	}

	samples := make([]sample, cfg.Requests)
	var cursor, completed atomic.Int64
	var swapOnce sync.Once
	var swapErr error
	var swapGen atomic.Uint64

	start := time.Now()
	if ch != nil {
		ch.start = start
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= cfg.Requests {
					return
				}
				samples[i] = doRequest(client, cfg.BaseURL, mix, i, start)
				done := completed.Add(1)
				if ch != nil {
					ch.maybeTrigger(done)
				}
				if cfg.SwapAfter > 0 && cfg.SwapTo != "" && done >= int64(cfg.SwapAfter) {
					swapOnce.Do(func() {
						gen, err := doSwap(client, cfg)
						if err != nil {
							swapErr = err
							return
						}
						swapGen.Store(gen)
					})
				}
			}
		}()
	}
	wg.Wait()
	rep.Elapsed = time.Since(start).Seconds()
	if ch != nil {
		// A fleet of one can finish on fast 503s while its only replica is
		// still down: read /version once the router has re-admitted it.
		ch.pollWG.Wait()
	}

	after, err := fetchVersion(client, cfg.BaseURL)
	if err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("server unreachable after run: %v", err))
	} else {
		rep.GenAfter = after.Generation
		rep.RecordsAfter = after.Records
	}

	tally(cfg, rep, samples)

	if cfg.SwapAfter > 0 && cfg.SwapTo != "" {
		switch {
		case swapErr != nil:
			rep.Violations = append(rep.Violations, fmt.Sprintf("hot-swap failed: %v", swapErr))
		case swapGen.Load() == 0:
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("hot-swap never triggered (swap-after %d of %d requests)", cfg.SwapAfter, cfg.Requests))
		case swapGen.Load() <= rep.GenBefore:
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("swap generation did not bump: before %d, after swap %d", rep.GenBefore, swapGen.Load()))
		default:
			rep.SwapPerformed = true
		}
	}
	if ch != nil {
		ch.finish(rep, samples)
		if cfg.MetricsCheck {
			checkRouterCounters(client, cfg, rep, beforeRouter)
		}
	}
	if cfg.MetricsCheck {
		checkMetrics(client, cfg, rep, beforeCounts)
	}
	return rep, nil
}

// doRequest fires request i and records its outcome.
func doRequest(client *http.Client, base string, mix *mixer, i int, runStart time.Time) sample {
	s := sample{class: mix.class(i)}
	var resp *http.Response
	var err error
	start := time.Now()
	s.t0Ns = start.Sub(runStart).Nanoseconds()
	switch s.class {
	case classBatch:
		resp, err = client.Post(base+"/batch", "application/json", bytes.NewReader(mix.batchBody(i)))
	case classHit:
		resp, err = client.Get(base + "/lookup?ip=" + url.QueryEscape(mix.hitIP(i, 0)))
	case classMiss:
		resp, err = client.Get(base + "/lookup?ip=" + url.QueryEscape(mix.missIP(i, 0)))
	default:
		resp, err = client.Get(base + "/lookup?ip=" + url.QueryEscape(mix.garbage(i)))
	}
	s.ms = float64(time.Since(start)) / float64(time.Millisecond)
	s.t1Ns = time.Since(runStart).Nanoseconds()
	if err != nil {
		return s // status 0 = dropped
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.status = resp.StatusCode
	// Every failure answer must carry the ID that joins it to exactly
	// one server access-log record.
	s.noID = s.status >= 400 && resp.Header.Get("X-Request-Id") == ""
	// The router's verdict header, the client half of the chaos accounting.
	if v := resp.Header.Get("X-Router-Failovers"); v != "" {
		s.failovers, _ = strconv.Atoi(v)
	}
	s.noRetryAfter = s.status == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == ""
	return s
}

// doSwap performs the mid-run artifact rotation and returns the new
// generation.
func doSwap(client *http.Client, cfg Config) (uint64, error) {
	body, _ := json.Marshal(struct {
		Path string `json:"path"`
	}{cfg.SwapTo})
	req, err := http.NewRequest(http.MethodPost, cfg.BaseURL+"/admin/reload", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Admin-Token", cfg.AdminToken)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("reload answered %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return 0, fmt.Errorf("bad reload response: %w", err)
	}
	return out.Generation, nil
}

// tally folds the samples into the ledger, percentiles, and violations.
// Latency percentiles come from a fixed-bucket histogram over the same
// bounds the server's own telemetry uses
// (telemetry.DefaultLatencyBoundsMs), not from sorting every sample: at
// full-routable-IPv4 request counts a sort is O(n log n) in memory the
// bench does not need, and sharing the server's bounds means a client
// percentile and the scraped /metrics histogram are bucketed
// identically and can be compared directly.
func tally(cfg Config, rep *Report, samples []sample) {
	hist := newLatencyHist(telemetry.DefaultLatencyBoundsMs)
	for _, s := range samples {
		if s.status == 0 {
			rep.Dropped++
			continue
		}
		rep.Statuses[strconv.Itoa(s.status)]++
		switch s.class {
		case classGarbage:
			// Garbage must be rejected at the door (400) or shed (429).
			if s.status != http.StatusBadRequest && s.status != http.StatusTooManyRequests {
				rep.GarbageViolations++
			}
		default:
			// In chaos mode a 503 is the DESIGNED degraded answer for the
			// victim's range; whether it stayed inside the outage window
			// is checked separately (chaos.go).
			ok := s.status == http.StatusOK || s.status == http.StatusNotFound ||
				s.status == http.StatusTooManyRequests ||
				((cfg.Allow503 || cfg.Chaos) && s.status == http.StatusServiceUnavailable)
			if !ok {
				rep.ValidViolations++
			}
		}
		if s.status == http.StatusTooManyRequests {
			rep.Sheds++
		}
		if s.noID {
			rep.MissingIDs++
		}
		if s.status == http.StatusOK || s.status == http.StatusNotFound {
			hist.observe(s.ms)
		}
	}
	rep.Admitted = hist.n
	rep.P50Ms = hist.quantile(0.50)
	rep.P99Ms = hist.quantile(0.99)
	rep.P999Ms = hist.quantile(0.999)

	if rep.Dropped > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%d dropped requests (transport errors or client timeouts)", rep.Dropped))
	}
	if rep.ValidViolations > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%d valid-address requests answered outside the designed status set", rep.ValidViolations))
	}
	if rep.GarbageViolations > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%d garbage requests not rejected with 400", rep.GarbageViolations))
	}
	if rep.MissingIDs > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%d failure answers missing the X-Request-Id header", rep.MissingIDs))
	}
	if cfg.ExpectShed && rep.Sheds == 0 {
		rep.Violations = append(rep.Violations, "overload run produced zero 429s (shedding never engaged)")
	}
	if cfg.MaxP999Ms > 0 && rep.P999Ms > cfg.MaxP999Ms {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("p999 latency %.1fms exceeds bound %.1fms", rep.P999Ms, cfg.MaxP999Ms))
	}
}

// latencyHist is a fixed-bucket latency accumulator: bounds[i] is the
// inclusive upper edge of bucket i, counts has one extra overflow
// bucket, and the observed min/max pin the interpolation so a quantile
// can never leave the range of actual samples. O(1) memory regardless
// of sample count.
type latencyHist struct {
	bounds   []float64
	counts   []int
	n        int
	min, max float64
}

func newLatencyHist(bounds []float64) *latencyHist {
	return &latencyHist{bounds: bounds, counts: make([]int, len(bounds)+1)}
}

// observe records one latency in milliseconds.
func (h *latencyHist) observe(ms float64) {
	h.counts[sort.SearchFloat64s(h.bounds, ms)]++
	if h.n == 0 || ms < h.min {
		h.min = ms
	}
	if h.n == 0 || ms > h.max {
		h.max = ms
	}
	h.n++
}

// quantile returns the q-quantile by linear interpolation inside the
// bucket holding the target rank, with the bucket edges clamped to the
// observed [min, max]. The result is monotone in q (later ranks land in
// the same bucket with a larger fraction, or a later bucket whose lower
// edge is at least this bucket's upper edge) and 0 when empty.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	cum := 0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, hi := h.min, h.max
			if i > 0 && h.bounds[i-1] > lo {
				lo = h.bounds[i-1]
			}
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.max
}

// percentile returns the q-quantile of sorted (nearest-rank); 0 when
// empty. The exact-rank oracle: TestHistQuantile checks latencyHist
// against it, and small deterministic tools that already hold a sorted
// slice keep using it directly.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// waitReady polls /readyz until it answers 200.
func waitReady(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server not ready after %s: %w", timeout, err)
			}
			return fmt.Errorf("server not ready after %s", timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// fetchVersion reads /version.
func fetchVersion(client *http.Client, base string) (versionInfo, error) {
	var v versionInfo
	resp, err := client.Get(base + "/version")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("/version answered %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, err
	}
	return v, nil
}
