// geoserve serves a compiled geolocation dataset over HTTP.
//
// It serves a dataset artifact file: the one -dataset names, or one it
// compiles from a fresh deterministic campaign (-scale: a named scale or
// a target count), optionally writing the artifact out (-write) instead
// of serving. The -faults profile injects
// deterministic per-IP lookup failures and stalls for chaos runs.
//
// The serving core (internal/serve) is production-shaped: artifacts
// hot-swap atomically under live traffic (SIGHUP, or POST /admin/reload
// guarded by -admin-token), overload is shed with 429 + Retry-After
// instead of collapse, every request has a deadline, and shutdown drains
// — /readyz flips to 503, in-flight requests finish, then the listener
// closes.
//
// With -router, geoserve instead runs an in-process fleet of -replicas
// servers behind the router (internal/router): every replica serves the
// same artifact, lookups are spread over them by IP range, and a request
// a dead replica failed is retried on the next live one — a 503 means
// none was.
//
//	geoserve -scale tiny -write dataset.bin
//	geoserve -dataset dataset.bin -addr :8080 -admin-token s3cret -metrics
//	curl 'localhost:8080/lookup?ip=10.0.0.7'
//	curl -X POST -H 'X-Admin-Token: s3cret' \
//	    -d '{"path":"dataset-v2.bin"}' localhost:8080/admin/reload
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/faults"
	"geoloc/internal/router"
	"geoloc/internal/serve"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

// options is the parsed flag set; one struct so run stays testable and
// main stays a thin exit-code shim.
type options struct {
	addr        string
	dsPath      string
	scale       string
	writePath   string
	faultName   string
	unsanitized bool
	maxBatch    int

	maxInflight    int
	maxQueue       int
	queueTimeout   time.Duration
	requestTimeout time.Duration
	retryAfter     time.Duration
	adminToken     string
	drainWait      time.Duration

	readTimeout       time.Duration
	readHeaderTimeout time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration

	routerMode    bool
	replicas      int
	probeInterval time.Duration
	upstreamTmo   time.Duration

	logSample   int
	traceSample int

	accessLog *slog.Logger
	reg       *telemetry.Registry
	pipeline  *telemetry.Registry // the CLI's run registry; nil meters nothing
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("geoserve: ")

	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.dsPath, "dataset", "", "serve this dataset artifact instead of compiling one")
	flag.StringVar(&o.scale, "scale", "tiny", "campaign scale to compile when -dataset is unset: tiny, medium, paper, or a target count (e.g. 1e6)")
	flag.StringVar(&o.writePath, "write", "", "write the compiled dataset artifact here and exit instead of serving")
	flag.StringVar(&o.faultName, "faults", "none", "serving fault profile: none, realistic, degraded, hostile")
	flag.BoolVar(&o.unsanitized, "unsanitized", false, "include removed anchors as unsanitized reported-location records")
	flag.IntVar(&o.maxBatch, "max-batch", serve.DefaultMaxBatch, "maximum IPs accepted in one /batch request")

	flag.IntVar(&o.maxInflight, "max-inflight", serve.DefaultMaxInflight,
		"maximum concurrently executing data-plane requests (negative = unlimited)")
	flag.IntVar(&o.maxQueue, "max-queue", serve.DefaultMaxQueue,
		"maximum requests queued for an inflight slot before shedding with 429")
	flag.DurationVar(&o.queueTimeout, "queue-timeout", serve.DefaultQueueTimeout,
		"maximum time a request may wait for an inflight slot before shedding with 429")
	flag.DurationVar(&o.requestTimeout, "request-timeout", serve.DefaultRequestTimeout,
		"per-request deadline; expired requests answer 504 (negative = none)")
	flag.DurationVar(&o.retryAfter, "retry-after", serve.DefaultRetryAfter,
		"Retry-After hint attached to every shed 429")
	flag.StringVar(&o.adminToken, "admin-token", "",
		"token guarding POST /admin/reload (empty disables the endpoint)")
	flag.DurationVar(&o.drainWait, "drain-wait", 1*time.Second,
		"pause between flipping /readyz to 503 and closing the listener on shutdown")

	flag.DurationVar(&o.readTimeout, "read-timeout", 30*time.Second,
		"http.Server ReadTimeout (whole request including body)")
	flag.DurationVar(&o.readHeaderTimeout, "read-header-timeout", 5*time.Second,
		"http.Server ReadHeaderTimeout (slowloris guard)")
	flag.DurationVar(&o.writeTimeout, "write-timeout", 30*time.Second,
		"http.Server WriteTimeout")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 120*time.Second,
		"http.Server IdleTimeout for keep-alive connections")

	flag.BoolVar(&o.routerMode, "router", false,
		"serve through the replicated front tier: an in-process fleet of -replicas servers behind a failover router")
	flag.IntVar(&o.replicas, "replicas", 4, "replica count for -router mode")
	flag.DurationVar(&o.probeInterval, "probe-interval", router.DefaultProbeInterval,
		"interval between active /readyz probes of each replica")
	flag.DurationVar(&o.upstreamTmo, "upstream-timeout", router.DefaultUpstreamTimeout,
		"budget for one router attempt against one replica")

	flag.IntVar(&o.logSample, "log-sample", 0,
		"log 1 in N successful requests to the access log (0 = errors only)")
	flag.IntVar(&o.traceSample, "trace-sample", 0,
		"record per-request stage spans for 1 in N requests (0 = off; export with -trace; single node only)")

	tele := telemetry.NewCLI()
	flag.Parse()
	tele.Start()
	o.accessLog = tele.Logger()
	o.pipeline = tele.Registry()
	// The serving registry always exists — GET /metrics is part of the
	// serving contract, not an opt-in diagnostic like the run registry
	// (which only the telemetry flags build).
	o.reg = telemetry.New()
	tele.Attach("geoserve", o.reg)

	err := run(o)
	// One Finish on every exit path: it is idempotent, but the log.Fatal
	// paths bypass deferred calls, so the explicit call must come first.
	tele.Finish()
	if err != nil {
		log.Fatal(err)
	}
}

func run(o options) error {
	prof, err := faults.ParseProfile(o.faultName)
	if err != nil {
		return err
	}
	if o.writePath != "" && o.dsPath != "" {
		return fmt.Errorf("-write with -dataset: the artifact is already on disk at %s", o.dsPath)
	}
	if o.unsanitized && o.dsPath != "" {
		return fmt.Errorf("-unsanitized with -dataset: nothing is compiled, so there are no removed anchors to include")
	}
	if o.traceSample > 0 && o.routerMode {
		// Each replica records into its own registry, which -trace never
		// writes: the spans would only pile up.
		return fmt.Errorf("-trace-sample with -router: replica spans are never exported; trace a single node")
	}

	// Without -dataset the artifact is compiled from -scale to a file —
	// -write's path, or a temporary one removed when serving ends — and
	// served from there like any other.
	if o.dsPath == "" {
		path, cleanup, err := compileArtifact(o.scale, o.unsanitized, o.writePath, o.pipeline)
		if err != nil {
			return err
		}
		if o.writePath != "" {
			return nil
		}
		defer cleanup()
		o.dsPath = path
	}

	// The serving config both modes share. Router-mode replicas carry no
	// admin token: fleet control goes through the router, not individual
	// replicas.
	cfg := serve.Config{
		Prof:           prof,
		MaxBatch:       o.maxBatch,
		MaxInflight:    o.maxInflight,
		MaxQueue:       o.maxQueue,
		QueueTimeout:   o.queueTimeout,
		RequestTimeout: o.requestTimeout,
		RetryAfter:     o.retryAfter,

		AccessLog:   o.accessLog,
		LogSample:   o.logSample,
		TraceSample: o.traceSample,
	}
	if o.routerMode {
		return runRouter(o, cfg)
	}

	cfg.AdminToken = o.adminToken
	srv := serve.New(cfg, o.reg)
	if _, err := srv.Reload(o.dsPath); err != nil {
		return err
	}
	art := srv.Current()
	log.Printf("serving %d records from %s on %s (faults=%s, generation %d, mapped=%v)",
		art.Records, art.Source, o.addr, o.faultName, art.Gen, art.R2.Mapped())
	return listenAndServe(o, srv.Handler(), []*serve.Server{srv}, srv.StartDrain)
}

// listenAndServe is the lifecycle both modes share: serve h on -addr,
// hot-swap on SIGHUP, drain on SIGINT/SIGTERM.
func listenAndServe(o options, h http.Handler, servers []*serve.Server, startDrain func()) error {
	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           h,
		ReadTimeout:       o.readTimeout,
		ReadHeaderTimeout: o.readHeaderTimeout,
		WriteTimeout:      o.writeTimeout,
		IdleTimeout:       o.idleTimeout,
	}

	// SIGHUP hot-swaps the artifact from its source file under live
	// traffic, server by server, each one atomically; a failed reload keeps
	// the old artifact serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			for i, s := range servers {
				art, err := s.Reload(o.dsPath)
				if err != nil {
					log.Printf("SIGHUP reload failed (server %d): %v", i, err)
					continue
				}
				log.Printf("SIGHUP swap: server %d now generation %d, %d records from %s", i, art.Gen, art.Records, art.Source)
			}
		}
	}()

	// Graceful drain: flip readiness so load balancers stop routing
	// here, give them drainWait to notice, then close the listener and
	// let Shutdown finish the in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		startDrain()
		log.Printf("draining: /readyz now 503, closing listener in %s", o.drainWait)
		time.Sleep(o.drainWait)
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-drained
	log.Printf("drained, exiting")
	return nil
}

// compileArtifact compiles the artifact a -scale names into a file —
// out, or one in a temporary directory that cleanup removes — through
// the external-merge compiler, spilling into a temporary directory beside
// the artifact. A named scale compiles its campaign, bytes identical to
// dataset.Compile(...).Write; a target count streams a synthetic one,
// which has no removed anchors for -unsanitized to add. The campaign and
// the compile meter into reg.
func compileArtifact(scale string, unsanitized bool, out string, reg *telemetry.Registry) (path string, cleanup func(), err error) {
	var (
		src   dataset.Source
		hdr   dataset.Header
		extra []dataset.Record
		opts  = dataset.Options{IncludeUnsanitized: unsanitized}
	)
	if n, ok := core.StreamScale(scale); ok {
		if unsanitized {
			return "", nil, errors.New("-unsanitized with a target-count -scale: a streamed campaign has no removed anchors")
		}
		s, err := core.NewStreamScale(n, reg)
		if err != nil {
			return "", nil, err
		}
		src, hdr = s, dataset.StreamHeader(s)
	} else {
		cfg, err := world.ParseScale(scale)
		if err != nil {
			return "", nil, err
		}
		c := core.NewResilientCampaign(cfg, nil, reg)
		src, hdr, extra = dataset.NewCampaignSource(c), dataset.CampaignHeader(c), dataset.CampaignExtras(c, opts)
	}

	cleanup = func() {}
	if out == "" {
		tmp, err := os.MkdirTemp("", "geoserve-*")
		if err != nil {
			return "", nil, err
		}
		cleanup = func() { os.RemoveAll(tmp) }
		out = filepath.Join(tmp, "geodset.bin")
	}
	spill, err := os.MkdirTemp(filepath.Dir(out), filepath.Base(out)+".spill-*")
	if err != nil {
		cleanup()
		return "", nil, err
	}
	defer os.RemoveAll(spill)

	start := time.Now()
	log.Printf("compiling %s-scale artifact to %s...", scale, out)
	stats, err := dataset.CompileExternal(out, src, hdr, opts, extra, dataset.StreamConfig{SpillDir: spill, Metrics: reg})
	if err != nil {
		cleanup()
		return "", nil, err
	}
	log.Printf("compiled %d records into %d blocks (%.1fs)", stats.Records, stats.Blocks, time.Since(start).Seconds())
	return out, cleanup, nil
}
