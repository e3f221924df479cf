// Router mode (-router): instead of one server, geoserve runs an
// in-process fleet of -replicas serve.Servers — each with its own
// listener and registry — behind the front tier in internal/router. One
// binary, one -addr, N replicas that fail independently: the chaos proof
// (geobench -chaos) kills and revives fleet members through the router's
// /admin/replica surface while traffic keeps flowing.
package main

import (
	"log"
	"time"

	"geoloc/internal/dataset"
	"geoloc/internal/faults"
	"geoloc/internal/router"
	"geoloc/internal/serve"
)

// runRouter is run()'s -router branch: fleet up — over the artifact file
// when there is one, over the in-process dataset otherwise — router in
// front, the same SIGHUP/drain lifecycle as single-server mode.
func runRouter(o options, cfg serve.Config, ds *dataset.Dataset) error {
	var fleet *router.LocalFleet
	var err error
	if ds != nil {
		fleet, err = router.NewLocalFleet(o.replicas, ds, "compiled:"+o.scale, cfg)
	} else {
		fleet, err = router.NewFileFleet(o.replicas, o.dsPath, cfg)
	}
	if err != nil {
		return err
	}
	defer fleet.Close()
	art := fleet.Servers()[0].Current()

	rt, err := router.New(router.Config{
		ReplicaURLs:     fleet.Addrs(),
		UpstreamTimeout: o.upstreamTmo,
		RequestTimeout:  o.requestTimeout,
		ProbeInterval:   o.probeInterval,
		RetryAfter:      o.retryAfter,
		Seed:            art.Hdr.Seed,
		Prof:            cfg.Prof,
		AdminToken:      o.adminToken,
		Controller:      fleet,
	}, o.reg)
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Close()

	// Deterministic replica chaos: when the fault profile carries
	// replica-lifecycle knobs, a driver loop flaps fleet members on the
	// profile's schedule (same seed → same outage windows).
	chaosStop := make(chan struct{})
	defer close(chaosStop)
	if prof := cfg.Prof; prof != nil && (prof.ReplicaCrashProb > 0 || prof.ReplicaFlapPeriodSec > 0) {
		go replicaChaosLoop(fleet, prof, art.Hdr.Seed, o.replicas, chaosStop)
	}

	log.Printf("routing %d records from %s across %d replicas on %s (faults=%s, mapped=%v)",
		art.Records, art.Source, o.replicas, o.addr, o.faultName, art.R2.Mapped())
	for i, r := range rt.Ranges() {
		log.Printf("  replica %d: first for %s-%s", i, r.Lo, r.Hi)
	}
	return listenAndServe(o, rt.Handler(), fleet.Servers(), rt.StartDrain)
}

// replicaChaosLoop applies the fault profile's replica-lifecycle
// schedule to the fleet: once a second each replica's desired state is
// recomputed from the deterministic flap windows and per-epoch crash
// draws, and the fleet is steered toward it. The loop never touches
// replica 0 when every other replica is down — a fully dead fleet
// proves nothing.
func replicaChaosLoop(fleet *router.LocalFleet, prof *faults.Profile, seed uint64, n int, stop <-chan struct{}) {
	start := time.Now()
	period := prof.ReplicaFlapPeriodSec
	if period <= 0 {
		period = 60
	}
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		elapsed := time.Since(start).Seconds()
		epoch := uint64(elapsed / period)
		downCount := 0
		for i := 0; i < n; i++ {
			if !fleet.Running(i) {
				downCount++
			}
		}
		for i := 0; i < n; i++ {
			wantDown := prof.ReplicaFlapDown(seed, uint64(i), elapsed) ||
				prof.ReplicaCrashed(seed, uint64(i), epoch)
			running := fleet.Running(i)
			switch {
			case wantDown && running && downCount < n-1:
				if err := fleet.StopReplica(i); err == nil {
					downCount++
					log.Printf("chaos: crashed replica %d (t=%.0fs)", i, elapsed)
				}
			case !wantDown && !running:
				if err := fleet.StartReplica(i); err == nil {
					downCount--
					log.Printf("chaos: revived replica %d (t=%.0fs)", i, elapsed)
				}
			}
		}
	}
}
