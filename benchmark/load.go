package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"geoloc/internal/obs"
	"geoloc/internal/serve"
)

// Load generation. The dataset's users are bulk callers that wait for each
// reply, so load is closed-loop: `procs` clients in this process, each with
// its own keep-alive connection per server, each sending its next request
// only after the previous reply has been read and checked. Everything runs
// over the loopback interface.

// checkEvery is how often a response is fully decoded and compared with the
// oracle; every response has its status (and, for a batch, its per-item
// error count) checked.
const checkEvery = 64

type clientPool struct{ clients []*http.Client }

func newClientPool() *clientPool {
	p := &clientPool{}
	for i := 0; i < procs; i++ {
		p.clients = append(p.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   20 * time.Second, // a hang must fail the run, not outlive it
		})
	}
	return p
}

func (p *clientPool) close() {
	for _, c := range p.clients {
		c.CloseIdleConnections()
	}
}

// httpDriver sends checked requests and keeps the client-side ledger that
// must equal the servers' hit/miss counters at the end of the run.
type httpDriver struct {
	h    *harness
	s    *synth
	pool *clientPool
	bufs []bytes.Buffer // one response buffer per client

	wantHits, wantMisses atomic.Int64 // every address sent to a server, by oracle class
	respBytes, responses atomic.Int64
}

func newHTTPDriver(h *harness, s *synth, pool *clientPool) *httpDriver {
	return &httpDriver{h: h, s: s, pool: pool, bufs: make([]bytes.Buffer, len(pool.clients))}
}

// exchange sends req on client c and returns the status and the body (valid
// until c's next exchange).
func (d *httpDriver) exchange(c int, req *http.Request) (int, []byte, error) {
	resp, err := d.pool.clients[c].Do(req)
	if err != nil {
		return 0, nil, err
	}
	buf := &d.bufs[c]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	d.respBytes.Add(int64(buf.Len()))
	d.responses.Add(1)
	return resp.StatusCode, buf.Bytes(), nil
}

// count adds ops to the ledger.
func (d *httpDriver) count(ops []lookupOp) {
	var hits int64
	for _, op := range ops {
		if op.rec >= 0 {
			hits++
		}
	}
	d.wantHits.Add(hits)
	d.wantMisses.Add(int64(len(ops)) - hits)
}

// matches compares one decoded result with the oracle.
func (d *httpDriver) matches(got serve.LookupResult, op lookupOp) bool {
	if got.IP != op.addr.String() {
		return false
	}
	if op.rec < 0 {
		return got.Error != "" && got.Prefix == ""
	}
	want := d.s.record(int(op.rec))
	return got.Error == "" && got.Prefix == want.Prefix.String() &&
		got.Lat == want.Centroid.Lat && got.Lon == want.Centroid.Lon &&
		got.RadiusKm == want.RadiusKm && got.Method == want.Method.String() && got.Sanitized == want.Sanitized
}

// clientWork is what one client records while it runs its share of a round:
// one latency sample per request and, in a traced round, one span.
type clientWork struct {
	samples []int64
	spans   []span
}

func (w *clientWork) reset(requests int) {
	w.samples = make([]int64, 0, requests) // the harness keeps the old ones
	w.spans = w.spans[:0]
}

// record notes one finished request; parent < 0 means the round is untraced.
func (w *clientWork) record(name string, id int64, parent int, t0 time.Time, lat time.Duration, count int64) {
	w.samples = append(w.samples, int64(lat))
	if parent >= 0 {
		start := int64(t0.Sub(processStart))
		w.spans = append(w.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: start + int64(lat), Count: count})
	}
}

// measuredRound runs round r as one slice: run(c, parent) on every client at
// once, then the clients' samples and spans go to the harness. traced turns
// spans on in a trace run. works[c] is what client c records into;
// opsPerSample is 1 for lookups, the batch size for batches.
func (d *httpDriver) measuredRound(r int, traced bool, opsPerSample int, works []*clientWork, run func(c, parent int)) {
	h := d.h
	h.sliceStart(r, traced)
	parent := h.curSpan
	d.pool.eachClient(func(c int) { run(c, parent) })
	var samples []int64
	for _, w := range works {
		samples = append(samples, w.samples...)
	}
	h.sliceEnd(len(samples)*opsPerSample, samples)
	if parent >= 0 {
		for _, w := range works {
			h.tr.add(w.spans...)
		}
	}
}

// lookupWork is one client's share of a round of GET /lookup, prepared
// between slices so that building it is never measured.
type lookupWork struct {
	clientWork
	ops  []lookupOp
	urls []string
}

func (w *lookupWork) prepare(base string, ops []lookupOp) {
	w.ops = ops
	w.urls = w.urls[:0]
	for _, op := range ops {
		w.urls = append(w.urls, base+op.addr.String())
	}
	w.reset(len(ops))
}

// lookups runs one client's work: sequential GETs, each checked. opBase
// numbers the ops for spans; parent < 0 turns span recording off.
func (d *httpDriver) lookups(c int, w *lookupWork, opBase int64, parent int) {
	d.count(w.ops)
	for i, op := range w.ops {
		t0 := time.Now()
		req, err := http.NewRequest(http.MethodGet, w.urls[i], nil)
		if err != nil {
			d.h.fail(1, "build request %s: %v", w.urls[i], err)
			continue
		}
		status, body, err := d.exchange(c, req)
		w.record("client.lookup", opBase+int64(i), parent, t0, time.Since(t0), 0)
		want := http.StatusOK
		if op.rec < 0 {
			want = http.StatusNotFound
		}
		switch {
		case err != nil:
			d.h.fail(1, "GET %s: %v", w.urls[i], err)
		case status != want:
			d.h.fail(1, "GET %s: status %d, oracle says %d", w.urls[i], status, want)
		case i%checkEvery == 0:
			var got serve.LookupResult
			if err := json.Unmarshal(body, &got); err != nil || !d.matches(got, op) {
				d.h.fail(1, "GET %s: body %q disagrees with the oracle (%v)", w.urls[i], body, err)
			}
		}
	}
}

// batchWork is one client's share of a round of POST /batch.
type batchWork struct {
	clientWork
	ops    [][]lookupOp // one entry per batch
	bodies [][]byte
}

func (w *batchWork) prepare(batches [][]lookupOp) {
	w.ops = batches
	for len(w.bodies) < len(batches) {
		w.bodies = append(w.bodies, nil)
	}
	for i, ops := range batches {
		b := append(w.bodies[i][:0], `{"ips":[`...)
		for j, op := range ops {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = op.addr.AppendText(b)
			b = append(b, '"')
		}
		w.bodies[i] = append(b, "]}"...)
	}
	w.reset(len(batches))
}

var errorField = []byte(`"error":`)

// batches runs one client's work: sequential POSTs, each checked.
func (d *httpDriver) batches(c int, url string, w *batchWork, opBase int64, parent int) {
	for i, ops := range w.ops {
		d.count(ops)
		t0 := time.Now()
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(w.bodies[i]))
		if err != nil {
			d.h.fail(len(ops), "build batch request: %v", err)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		status, body, err := d.exchange(c, req)
		w.record("client.batch", opBase+int64(i), parent, t0, time.Since(t0), int64(len(ops)))
		misses := 0
		for _, op := range ops {
			if op.rec < 0 {
				misses++
			}
		}
		switch {
		case err != nil:
			d.h.fail(len(ops), "POST %s: %v", url, err)
		case status != http.StatusOK:
			d.h.fail(len(ops), "POST %s: status %d", url, status)
		case bytes.Count(body, errorField) != misses:
			d.h.fail(len(ops), "POST %s: %d per-item errors, oracle says %d", url, bytes.Count(body, errorField), misses)
		case i%checkEvery == 0:
			var got struct {
				Results []serve.LookupResult `json:"results"`
			}
			if err := json.Unmarshal(body, &got); err != nil || len(got.Results) != len(ops) {
				d.h.fail(len(ops), "POST %s: %d results for %d addresses (%v)", url, len(got.Results), len(ops), err)
				continue
			}
			for j, op := range ops {
				if !d.matches(got.Results[j], op) {
					d.h.fail(1, "POST %s: item %d %+v disagrees with the oracle", url, j, got.Results[j])
				}
			}
		}
	}
}

// eachClient runs fn once per client, concurrently, and waits.
func (p *clientPool) eachClient(fn func(c int)) {
	var wg sync.WaitGroup
	for c := range p.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// scrapeCounters reads base's /metrics and sums each named counter over all
// its label sets.
func scrapeCounters(c *http.Client, base string, names ...string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse only
		return nil, fmt.Errorf("%s/metrics answered %d", base, resp.StatusCode)
	}
	sc, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s/metrics: malformed exposition: %w", base, err)
	}
	out := make(map[string]float64, len(names))
	for _, n := range names {
		for _, s := range sc.Find(n, nil) {
			out[n] += s.Value
		}
	}
	return out, nil
}
