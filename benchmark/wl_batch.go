package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"

	"geoloc/internal/dataset"
	"geoloc/internal/serve"
	"geoloc/internal/telemetry"
)

// batch-direct sizes. 4M records of 30 bytes make a ~120 MB artifact, far
// beyond the last-level cache, and uniform addresses give it no locality. A
// round is 400 batches per client and takes about a fifth of a reference
// second.
const (
	batchRecords         = 4_000_000
	batchStride          = 3 // two-/24 hole after every record
	batchSize            = 256
	batchHits            = 230 // of 256: ~90 %
	batchPerClient       = 400
	batchRoundsPerSecond = 3
	batchWarmRounds      = 4
	batchSetupReps       = 3
	batchPeelFinds       = 1 << 20
	batchPeelPreadFinds  = 1 << 17 // the positioned-read path is ~15x slower; a prefix of the stream is enough
	batchPeelRequests    = 512
	batchPeelLoopback    = 1000
)

// rewindBody is a request body the handler peel can replay without
// allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// batchOps draws n batches with the workload's exact per-batch mix.
func batchOps(s *synth, r *rng, n int) [][]lookupOp {
	flat := make([]lookupOp, n*batchSize)
	out := make([][]lookupOp, n)
	classes := make([]opClass, batchSize)
	for i := range out {
		mixPattern(r, classes, 0, batchHits)
		out[i] = flat[i*batchSize : (i+1)*batchSize]
		s.genOps(r, classes, nil, out[i])
	}
	return out
}

// batchEnv is one set-up of the workload: the artifact written, published on
// a mapped server, clients connected and warmed up.
type batchEnv struct {
	s    *synth
	rnd  *rng
	size int64
	reg  *telemetry.Registry
	srv  *serve.Server
	hs   *http.Server
	pool *clientPool
	url  string
	d    *httpDriver
	work []batchWork
}

func (e *batchEnv) close() {
	if e == nil {
		return
	}
	if e.pool != nil {
		e.pool.close()
	}
	if e.hs != nil {
		e.hs.Close()
	}
	if e.srv != nil {
		if art := e.srv.Current(); art != nil && art.R2 != nil {
			art.R2.Close()
		}
	}
}

// prepare draws every client's share of a round.
func (e *batchEnv) prepare() {
	for c := range e.work {
		e.work[c].prepare(batchOps(e.s, e.rnd, batchPerClient))
	}
}

// setupBatch builds and warms up one batchEnv; the caller closes it, also
// when an error is returned. How long the 120 MB write takes depends on what
// the page cache held before the process started (0.30 s right after another
// batch-direct run, 0.55 s otherwise), which is one reason the set-up runs
// several times and the median counts.
func setupBatch(h *harness, path string) (*batchEnv, error) {
	e := &batchEnv{reg: telemetry.New()}
	err := h.step("campaign", func() error {
		e.s = newSynth(h.seed, synthPart{base: 1 << 16, n: batchRecords, stride: batchStride})
		e.rnd = newRNG(h.seed, 0xBA7C)
		return nil
	})
	if err != nil {
		return e, err
	}
	hdr := dataset.Header{ConfigHash: mix64(h.seed), Seed: h.seed, Profile: "synthetic"}
	err = h.step("artifact", func() error {
		w, err := dataset.NewWriter2(path, hdr, 0)
		if err != nil {
			return err
		}
		for i := 0; i < e.s.n; i++ {
			if err := w.Add(e.s.record(i)); err != nil {
				w.Abort()
				return err
			}
		}
		e.size, err = w.Finish()
		return err
	})
	if err != nil {
		return e, err
	}
	e.srv = serve.New(serve.Config{Mmap: true}, e.reg)
	err = h.step("open_publish", func() error {
		art, err := e.srv.Reload(path)
		if err != nil {
			return err
		}
		if art.R2 == nil || !art.R2.Mapped() || art.Records != e.s.n {
			return fmt.Errorf("published artifact: mapped=%v records=%d, want mapped %d", art.R2 != nil && art.R2.Mapped(), art.Records, e.s.n)
		}
		return nil
	})
	if err != nil {
		return e, err
	}
	err = h.step("fleet", func() error {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		e.hs = &http.Server{Handler: e.srv.Handler()}
		go e.hs.Serve(ln) //nolint:errcheck // returns on Close
		e.url = "http://" + ln.Addr().String() + "/batch"
		e.pool = newClientPool()
		return nil
	})
	if err != nil {
		return e, err
	}

	e.d = newHTTPDriver(h, e.s, e.pool)
	e.work = make([]batchWork, procs)
	for i := 0; i < batchWarmRounds; i++ {
		e.prepare()
		h.stepBegin("warmup")
		e.pool.eachClient(func(c int) { e.d.batches(c, e.url, &e.work[c], 0, -1) })
		h.stepEnd()
	}
	if n := h.failed.Load(); n > 0 {
		return e, fmt.Errorf("%d warm-up addresses failed", n)
	}
	return e, nil
}

func runBatchDirect(h *harness) error {
	rounds := h.seconds * batchRoundsPerSecond
	if h.tr != nil {
		rounds /= 2 // the peels take the other half of the run
	}
	path := filepath.Join(h.tmpDir, "batch.geodset2")

	var e *batchEnv
	defer func() { e.close() }()
	for rep := 0; rep < batchSetupReps; rep++ {
		if e != nil {
			e.close()
		}
		h.nextSetupRep()
		var err error
		if e, err = setupBatch(h, path); err != nil {
			return err
		}
	}
	h.artifactBytesPerOp = float64(e.size) / float64(e.s.n)
	d := e.d

	h.beginMeasure("bench.round")
	recs := make([]*clientWork, len(e.work))
	for c := range e.work {
		recs[c] = &e.work[c].clientWork
	}
	for r := 0; r < rounds; r++ {
		e.prepare()
		opBase := int64(r) * procs * batchPerClient
		d.measuredRound(r, r%2 == 0, batchSize, recs, func(c, parent int) {
			d.batches(c, e.url, &e.work[c], opBase+int64(c)*batchPerClient, parent)
		})
	}
	h.endMeasure()

	if h.tr != nil {
		if err := peelBatch(h, e, path); err != nil {
			return err
		}
	}
	if n := d.responses.Load(); n > 0 {
		h.layer["http.response_bytes_per_op"] = float64(d.respBytes.Load()) / float64(n*batchSize)
	}

	// The registry was injected, so the ledger is read directly.
	count := func(name string) float64 { return float64(e.reg.Counter(name).Value()) }
	h.layer["serve.hits"], h.layer["serve.misses"] = count("geoserve.hits"), count("geoserve.misses")
	h.layer["serve.shed"], h.layer["serve.deadline_expired"] = count("geoserve.shed"), count("geoserve.deadline_expired")
	wantHits, wantMisses := float64(d.wantHits.Load()), float64(d.wantMisses.Load())
	if h.layer["serve.hits"] != wantHits || h.layer["serve.misses"] != wantMisses {
		h.fail(1, "ledger: server counted %v hits / %v misses, clients sent %v / %v",
			h.layer["serve.hits"], h.layer["serve.misses"], wantHits, wantMisses)
	}
	if h.layer["serve.shed"] != 0 || h.layer["serve.deadline_expired"] != 0 {
		h.fail(1, "ledger: shed=%v deadline_expired=%v, want 0", h.layer["serve.shed"], h.layer["serve.deadline_expired"])
	}
	h.note("ledger hits=%.0f misses=%.0f shed=%.0f deadline_expired=%.0f artifact_bytes=%d",
		wantHits, wantMisses, h.layer["serve.shed"], h.layer["serve.deadline_expired"], e.size)
	return nil
}

// peelBatch prices the layers under a batch: opening the artifact either way,
// Find on the mapped and the positioned-read path over one address stream,
// the /batch handler without a socket, and one client over loopback.
func peelBatch(h *harness, e *batchEnv, path string) error {
	d, s, rnd, srv, url := e.d, e.s, e.rnd, e.srv, e.url
	h.layer["serve.reload_ms"] = h.stepRefS("open_publish") * 1e3
	classes := make([]opClass, batchSize)
	stream := make([]lookupOp, batchPeelFinds)
	for off := 0; off < len(stream); off += batchSize {
		mixPattern(rnd, classes, 0, batchHits)
		s.genOps(rnd, classes, nil, stream[off:off+batchSize])
	}
	opens := []struct {
		open     func(string) (*dataset.Reader2, error)
		openName string
		findName string
		finds    int
	}{
		{dataset.OpenMapped, "dataset.open_mapped_ms", "dataset.find.mapped_ns_per_op", batchPeelFinds},
		{dataset.Open2, "dataset.open2_ms", "dataset.find.pread_ns_per_op", batchPeelPreadFinds},
	}
	for _, o := range opens {
		var r2 *dataset.Reader2
		var err error
		h.layer[o.openName] = h.peel(o.openName, 1, func() { r2, err = o.open(path) }) / 1e6
		if err != nil {
			return fmt.Errorf("%s: %w", o.openName, err)
		}
		hits := 0
		h.layer[o.findName] = h.peel(o.findName, o.finds, func() {
			for _, op := range stream[:o.finds] {
				rec, ok, err := r2.Find(op.addr)
				if err != nil || ok != (op.rec >= 0) || (ok && rec.Prefix != s.prefix(int(op.rec))) {
					h.fail(1, "Find(%v) = %v,%v,%v; oracle record %d", op.addr, rec.Prefix, ok, err, op.rec)
				}
				if ok {
					hits++
				}
			}
		})
		h.layer["dataset.find.hit_ratio"] = float64(hits) / float64(o.finds)
		r2.Close()
	}

	// Handler without a socket.
	handler := srv.Handler()
	batches := batchOps(s, rnd, batchPeelRequests)
	var work batchWork
	work.prepare(batches)
	body := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, "/batch", nil)
	req.Body = body
	w := &noopWriter{hdr: http.Header{}}
	for _, ops := range batches {
		d.count(ops)
	}
	m0 := mallocsNow()
	ips := len(batches) * batchSize
	h.layer["serve.batch_handler_us_per_ip"] = h.peel("serve.batch_handler", ips, func() {
		for i := range batches {
			body.Reset(work.bodies[i])
			w.status = 0
			handler.ServeHTTP(w, req)
			if w.status != http.StatusOK && w.status != 0 {
				h.fail(batchSize, "batch handler: status %d", w.status)
			}
		}
	}) / 1e3
	h.layer["serve.batch_handler_allocs_per_ip"] = float64(mallocsNow()-m0) / float64(ips)

	// One client over loopback.
	var lb batchWork
	lb.prepare(batchOps(s, rnd, batchPeelLoopback))
	h.layer["serve.batch_loopback_us_per_ip"] = h.peel("serve.batch_loopback", batchPeelLoopback*batchSize, func() {
		d.batches(0, url, &lb, 0, -1)
	}) / 1e3

	h.layer["serve.batch_self_us_per_ip"] = h.layer["serve.batch_handler_us_per_ip"] - h.layer["dataset.find.mapped_ns_per_op"]/1e3
	h.layer["http.batch_transport_us_per_ip"] = h.layer["serve.batch_loopback_us_per_ip"] - h.layer["serve.batch_handler_us_per_ip"]
	h.note("peel finds=%d handler_batches=%d loopback_batches=%d", len(stream), len(batches), batchPeelLoopback)
	return nil
}
