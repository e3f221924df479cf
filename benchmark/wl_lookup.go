package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"

	"geoloc/internal/dataset"
	"geoloc/internal/ipaddr"
	"geoloc/internal/ipindex"
	"geoloc/internal/router"
	"geoloc/internal/serve"
	"geoloc/internal/telemetry"
)

// lookup-routed sizes. A round is 2,000 requests per client and takes about a
// third of a reference second.
//
// The traffic is assumed, not measured: neither the repository nor the studies
// in PAPERS.md hold a query trace of a geolocation database. What is fixed by
// the issue is the shape of the caller (bulk callers that wait for each reply:
// 2 closed-loop clients). The 80/20 hit/miss split is cmd/geobench's default
// 70/20/10 hit/miss/garbage with the garbage left out, because a benchmark
// workload may not contain ops that fail. The one input property the serving
// code's behaviour depends on is address locality — whether a request's /24 is
// among the 128 most recently requested /24s of its top octet, which is when
// the ipindex LRU answers it — so rounds alternate between a stream that has
// it and one that does not:
//
//   - local rounds: 90 % of the hits go to a 128-prefix hot set, which fits
//     the LRUs (128 entries per top-octet shard) many times over;
//   - scattered rounds: every hit is drawn uniformly from all 200,000
//     prefixes, 8.5x what the ~183 populated shards' LRUs hold together.
//
// The end-to-end metrics cover both; lookup.local.* and lookup.scattered.*
// split them, and the trace run reports the LRU hit share the index itself
// counted on each stream (ipindex.cache_hit_share.*).
const (
	lookupRecords         = 200_000
	lookupStride          = 60 // /24s between records: ~91 top octets per partition
	lookupHotSet          = 128
	lookupPerClient       = 2000
	lookupRoundsPerSecond = 4
	lookupWarmRounds      = 6
	lookupSetupReps       = 3
	lookupMixBlock        = 50 // 40 hits + 10 misses
	lookupMixHits         = 40
	lookupMixHot          = 36   // of the 40 hits, in a local round
	lookupPeelOps         = 8000 // loopback peels, one client; half local, half scattered
	lookupPeelCalls       = 1 << 20
	lookupPeelIndexOps    = 1 << 18 // index peels: 11x what the LRUs hold, replayed 4 times
	lookupHandlerRequests = 4096
)

// noopWriter is the ResponseWriter of the handler peel: it keeps the status
// and drops the body, so the peel prices the handler and not a recorder.
type noopWriter struct {
	hdr    http.Header
	status int
}

func (w *noopWriter) Header() http.Header         { return w.hdr }
func (w *noopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *noopWriter) WriteHeader(status int)      { w.status = status }

// lookupStream draws n addresses with the exact mix of a local or a scattered
// round.
func lookupStream(s *synth, r *rng, hot []int32, n int, local bool) []lookupOp {
	nHot := 0
	if local {
		nHot = lookupMixHot
	}
	ops := make([]lookupOp, n)
	classes := make([]opClass, lookupMixBlock)
	for off := 0; off < n; off += lookupMixBlock {
		end := off + lookupMixBlock
		if end > n {
			end = n
		}
		mixPattern(r, classes, nHot, lookupMixHits-nHot)
		s.genOps(r, classes[:end-off], hot, ops[off:end])
	}
	return ops
}

// localRound says which stream round r sends.
func localRound(r int) bool { return r%2 == 0 }

// lookupEnv is one set-up of the workload: inputs, fleet, router, clients,
// warmed up.
type lookupEnv struct {
	s      *synth
	hot    []int32
	rnd    *rng
	ds     *dataset.Dataset
	fleet  *router.LocalFleet
	rtReg  *telemetry.Registry
	rt     *router.Router
	rtSrv  *http.Server
	rtBase string
	pool   *clientPool
	echo   *echoServer
	d      *httpDriver
	work   []lookupWork
}

func (e *lookupEnv) close() {
	if e == nil {
		return
	}
	if e.echo != nil {
		e.echo.close()
	}
	if e.pool != nil {
		e.pool.close()
	}
	if e.rtSrv != nil {
		e.rtSrv.Close()
	}
	if e.rt != nil {
		e.rt.Close()
	}
	if e.fleet != nil {
		e.fleet.Close()
	}
}

// prepare draws every client's share of round r.
func (e *lookupEnv) prepare(r int) {
	for c := range e.work {
		e.work[c].prepare(e.rtBase+"/lookup?ip=", lookupStream(e.s, e.rnd, e.hot, lookupPerClient, localRound(r)))
	}
}

// setupLookup builds and warms up one lookupEnv; the caller closes it, also
// when an error is returned.
func setupLookup(h *harness) (*lookupEnv, error) {
	e := &lookupEnv{rtReg: telemetry.New()}
	err := h.step("campaign", func() error {
		// Half the records in each of the two partitions the router deals:
		// 2.0.0.0 upwards for replica 0, 130.0.0.0 upwards for replica 1.
		e.s = newSynth(h.seed,
			synthPart{base: 2 << 16, n: lookupRecords / 2, stride: lookupStride},
			synthPart{base: 130 << 16, n: lookupRecords / 2, stride: lookupStride})
		e.rnd = newRNG(h.seed, 0x100C)
		e.hot = make([]int32, lookupHotSet)
		for i := range e.hot {
			e.hot[i] = int32(e.rnd.intn(e.s.n))
		}
		return nil
	})
	if err != nil {
		return e, err
	}
	err = h.step("artifact", func() error {
		e.ds = &dataset.Dataset{
			Hdr:     dataset.Header{Version: dataset.Version, ConfigHash: mix64(h.seed), Seed: h.seed, Profile: "synthetic"},
			Records: make([]dataset.Record, e.s.n),
		}
		for i := range e.ds.Records {
			e.ds.Records[i] = e.s.record(i)
		}
		return nil
	})
	if err != nil {
		return e, err
	}
	err = h.step("fleet", func() error {
		var err error
		if e.fleet, err = router.NewLocalFleet(2, e.ds, "synthetic", serve.Config{}); err != nil {
			return err
		}
		if e.rt, err = router.New(router.Config{ReplicaURLs: e.fleet.Addrs(), Seed: h.seed}, e.rtReg); err != nil {
			return err
		}
		e.rt.Start()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		e.rtSrv = &http.Server{Handler: e.rt.Handler()}
		go e.rtSrv.Serve(ln) //nolint:errcheck // returns on Close
		e.rtBase = "http://" + ln.Addr().String()
		e.pool = newClientPool()
		e.echo, err = newEchoServer(e.pool)
		return err
	})
	if err != nil {
		return e, err
	}

	e.d = newHTTPDriver(h, e.s, e.pool)
	e.work = make([]lookupWork, procs)
	for r := 0; r < lookupWarmRounds; r++ {
		e.prepare(r)
		h.stepBegin("warmup")
		e.pool.eachClient(func(c int) { e.d.lookups(c, &e.work[c], 0, -1) })
		h.stepEnd()
	}
	if n := h.failed.Load(); n > 0 {
		return e, fmt.Errorf("%d warm-up requests failed", n)
	}
	return e, nil
}

func runLookupRouted(h *harness) error {
	rounds := h.seconds * lookupRoundsPerSecond
	if h.tr != nil {
		rounds /= 2 // the peels take the other half of the run
	}

	var e *lookupEnv
	defer func() { e.close() }()
	for rep := 0; rep < lookupSetupReps; rep++ {
		if e != nil {
			e.close()
		}
		h.nextSetupRep()
		var err error
		if e, err = setupLookup(h); err != nil {
			return err
		}
	}

	h.beginMeasure("bench.round")
	recs := make([]*clientWork, len(e.work))
	for c := range e.work {
		recs[c] = &e.work[c].clientWork
	}
	for r := 0; r < rounds; r++ {
		e.prepare(r)
		opBase := int64(r) * procs * lookupPerClient
		// Spans are on for two rounds in four, so that a local and a
		// scattered round each run both ways.
		e.d.measuredRound(r, r%4 < 2, 1, recs, func(c, parent int) {
			e.d.lookups(c, &e.work[c], opBase+int64(c)*lookupPerClient, parent)
		})
	}
	h.endMeasure()
	h.artifactBytesPerOp = float64(len(e.ds.Encode())) / float64(len(e.ds.Records))
	lookupSplit(h)

	if h.tr != nil {
		peelLookup(h, e)
	}
	if n := e.d.responses.Load(); n > 0 {
		h.layer["http.response_bytes_per_op"] = float64(e.d.respBytes.Load()) / float64(n)
	}
	return lookupLedger(h, e.d, e.fleet, e.rtReg)
}

// lookupSplit reports throughput and median latency of the local and the
// scattered rounds apart. Every round is one slice.
func lookupSplit(h *harness) {
	for _, side := range []struct {
		name  string
		local bool
	}{{"local", true}, {"scattered", false}} {
		var perOp, lat []float64
		for i := range h.slices {
			s := &h.slices[i]
			if localRound(s.round) != side.local || s.ops == 0 {
				continue
			}
			k := s.k()
			perOp = append(perOp, float64(s.wallNs)*k/float64(s.ops))
			for _, ns := range s.samples {
				lat = append(lat, float64(ns)*k/1e3)
			}
		}
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		h.layer["lookup."+side.name+".ops_per_ref_s"] = 1e9 / median(perOp)
		h.layer["lookup."+side.name+".p50_ref_us"] = percentile(lat, 50)
	}
}

// lookupLedger requires the servers' counters to equal what the clients sent.
func lookupLedger(h *harness, d *httpDriver, fleet *router.LocalFleet, rtReg *telemetry.Registry) error {
	names := []string{"geoserve_hits_total", "geoserve_misses_total", "geoserve_shed_total", "geoserve_deadline_expired_total"}
	total := map[string]float64{}
	for _, base := range fleet.Addrs() {
		got, err := scrapeCounters(d.pool.clients[0], base, names...)
		if err != nil {
			return fmt.Errorf("scrape replica: %w", err)
		}
		for k, v := range got {
			total[k] += v
		}
	}
	h.layer["serve.hits"] = total["geoserve_hits_total"]
	h.layer["serve.misses"] = total["geoserve_misses_total"]
	h.layer["serve.shed"] = total["geoserve_shed_total"]
	h.layer["serve.deadline_expired"] = total["geoserve_deadline_expired_total"]
	for metric, counter := range map[string]string{
		"router.failovers": "georouter.failovers", "router.hedges": "georouter.hedges",
		"router.hedge_wins": "georouter.hedge_wins", "router.retries": "georouter.retries",
		"router.range_unavailable": "georouter.range_unavailable",
	} {
		h.layer[metric] = float64(rtReg.Counter(counter).Value())
	}
	wantHits, wantMisses := float64(d.wantHits.Load()), float64(d.wantMisses.Load())
	if h.layer["serve.hits"] != wantHits || h.layer["serve.misses"] != wantMisses {
		h.fail(1, "ledger: servers counted %v hits / %v misses, clients sent %v / %v",
			h.layer["serve.hits"], h.layer["serve.misses"], wantHits, wantMisses)
	}
	for _, m := range []string{"serve.shed", "serve.deadline_expired", "router.failovers", "router.range_unavailable"} {
		if h.layer[m] != 0 {
			h.fail(1, "ledger: %s = %v, want 0", m, h.layer[m])
		}
	}
	h.note("ledger hits=%.0f misses=%.0f shed=%.0f deadline_expired=%.0f failovers=%.0f range_unavailable=%.0f",
		wantHits, wantMisses, h.layer["serve.shed"], h.layer["serve.deadline_expired"],
		h.layer["router.failovers"], h.layer["router.range_unavailable"])
	return nil
}

// peelLookup prices one hop at a time over the workload's own addresses, half
// of them from the local stream and half from the scattered one: parse,
// partition pick, index (with and without its LRU, on each stream apart, with
// the LRU hit share the index counts itself), the serve handler without a
// socket, one client straight to the owning replica, one client through the
// router, and the bare echo for scale.
func peelLookup(h *harness, e *lookupEnv) {
	d, s := e.d, e.s
	half := lookupPeelOps / 2
	ops := append(lookupStream(s, e.rnd, e.hot, half, true), lookupStream(s, e.rnd, e.hot, half, false)...)
	texts := make([]string, len(ops))
	for i, op := range ops {
		texts[i] = op.addr.String()
	}
	ranges := e.rt.Ranges()
	servers := e.fleet.Servers()
	addrs := e.fleet.Addrs()
	// Which replica owns each address is looked up once, so that only the
	// router.replica_for peel pays for it.
	owner := make([]int, len(ops))
	for i, op := range ops {
		owner[i] = ranges.ReplicaFor(op.addr)
	}
	// ipindex counts its LRU hits in the process-wide registry only, so the
	// indexes are reached through the servers rather than rebuilt here.
	indexes := make([]*ipindex.Index, len(servers))
	for i, srv := range servers {
		indexes[i] = srv.Index()
	}
	var sink int

	reps := lookupPeelCalls / len(ops)
	h.layer["ipaddr.parse_ns_per_op"] = h.peel("ipaddr.parse", reps*len(ops), func() {
		for r := 0; r < reps; r++ {
			for _, t := range texts {
				a, _ := ipaddr.Parse(t)
				sink += int(a)
			}
		}
	})
	h.layer["router.replica_for_ns_per_op"] = h.peel("router.replica_for", reps*len(ops), func() {
		for r := 0; r < reps; r++ {
			for _, op := range ops {
				sink += ranges.ReplicaFor(op.addr)
			}
		}
	})
	// The index on each stream apart, over addresses long enough not to
	// repeat: replaying a few thousand would leave all of them in the LRUs
	// and price a hit, whatever the stream. The first replay runs with the
	// process-wide telemetry registry on, which is where ipindex counts its
	// LRU hits and misses, and is not timed; the ones after it are.
	hits, misses := telemetry.Default().Counter("ipindex.cache_hits"), telemetry.Default().Counter("ipindex.cache_misses")
	for _, side := range []struct {
		name, suffix string
		local        bool
	}{{"local", "", true}, {"scattered", "_scattered", false}} {
		stream := lookupStream(s, e.rnd, e.hot, lookupPeelIndexOps, side.local)
		ixs := make([]*ipindex.Index, len(stream))
		for i, op := range stream {
			ixs[i] = indexes[ranges.ReplicaFor(op.addr)]
		}
		replay := func(name string, uncached bool) {
			for i, op := range stream {
				var ok bool
				if uncached {
					_, ok = ixs[i].LookupUncached(op.addr)
				} else {
					_, ok = ixs[i].Lookup(op.addr)
				}
				if ok != (op.rec >= 0) {
					h.fail(1, "%s(%v) = %v, oracle says %v", name, op.addr, ok, op.rec >= 0)
				}
			}
		}
		h0, m0 := hits.Value(), misses.Value()
		telemetry.Default().SetEnabled(true)
		replay("ipindex.lookup", false)
		telemetry.Default().SetEnabled(false)
		if n := hits.Value() - h0 + misses.Value() - m0; n > 0 {
			h.layer["ipindex.cache_hit_share."+side.name] = float64(hits.Value()-h0) / float64(n)
		}
		const replays = lookupPeelCalls / lookupPeelIndexOps
		for _, uncached := range []bool{false, true} {
			name := "ipindex.lookup" + side.suffix
			if uncached {
				name += "_uncached"
			}
			h.layer[name+"_ns_per_op"] = h.peel(name, replays*len(stream), func() {
				for r := 0; r < replays; r++ {
					replay(name, uncached)
				}
			})
		}
	}

	// Handler without a socket: prebuilt requests, no-op writer.
	handlers := make([]http.Handler, len(servers))
	for i, srv := range servers {
		handlers[i] = srv.Handler()
	}
	// Addresses picked evenly across ops, so that both streams are in.
	reqs := make([]*http.Request, lookupHandlerRequests)
	hops := make([]lookupOp, len(reqs))
	hopOwner := make([]int, len(reqs))
	for i := range reqs {
		j := i * len(ops) / len(reqs)
		reqs[i] = httptest.NewRequest(http.MethodGet, "/lookup?ip="+texts[j], nil)
		hops[i], hopOwner[i] = ops[j], owner[j]
	}
	w := &noopWriter{hdr: http.Header{}}
	const handlerReps = 8
	for r := 0; r < handlerReps; r++ {
		d.count(hops) // the handler bumps the same hit/miss counters a socket request does
	}
	m0 := mallocsNow()
	h.layer["serve.handler_us_per_op"] = h.peel("serve.handler", handlerReps*len(reqs), func() {
		for r := 0; r < handlerReps; r++ {
			for i, req := range reqs {
				w.status = 0
				handlers[hopOwner[i]].ServeHTTP(w, req)
				want := http.StatusOK
				if hops[i].rec < 0 {
					want = http.StatusNotFound
				}
				if w.status != want {
					h.fail(1, "handler %s: status %d, oracle says %d", req.URL, w.status, want)
				}
			}
		}
	}) / 1e3
	h.layer["serve.handler_allocs_per_op"] = float64(mallocsNow()-m0) / float64(handlerReps*len(reqs))

	// One client on a socket: to the owning replica, then through the router.
	var direct, routed lookupWork
	direct.ops, routed.ops = ops, ops
	for i, t := range texts {
		direct.urls = append(direct.urls, addrs[owner[i]]+"/lookup?ip="+t)
		routed.urls = append(routed.urls, e.rtBase+"/lookup?ip="+t)
	}
	direct.reset(len(ops))
	routed.reset(len(ops))
	h.layer["serve.loopback_us_per_op"] = h.peel("serve.loopback", len(ops), func() { d.lookups(0, &direct, 0, -1) }) / 1e3
	h.layer["router.loopback_us_per_op"] = h.peel("router.loopback", len(ops), func() { d.lookups(0, &routed, 0, -1) }) / 1e3
	echoUs := h.peel("http.echo", len(ops), func() { e.echo.echo(d.pool.clients[0], len(ops)) }) / 1e3
	// The bare echo under the workload's own load shape: both clients at once.
	const echoRuns = 9
	rps := make([]float64, echoRuns)
	for i := range rps {
		rps[i] = procs * echoPerClient / e.echo.run().Seconds()
	}
	h.fresh = false
	h.layer["bench.ref_http_rps_p50"] = median(rps)

	h.layer["serve.self_us"] = h.layer["serve.handler_us_per_op"] -
		(h.layer["ipaddr.parse_ns_per_op"]+(h.layer["ipindex.lookup_ns_per_op"]+h.layer["ipindex.lookup_scattered_ns_per_op"])/2)/1e3
	h.layer["http.transport_us"] = h.layer["serve.loopback_us_per_op"] - h.layer["serve.handler_us_per_op"]
	h.layer["router.hop_us"] = h.layer["router.loopback_us_per_op"] - h.layer["serve.loopback_us_per_op"]
	h.layer["serve.vs_ref_http"] = h.layer["serve.loopback_us_per_op"] / echoUs
	h.note("peel echo_us_per_op=%.2f checksum=%d", echoUs, sink&0xff)
}
