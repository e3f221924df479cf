// Router mode (-router): instead of one server, geoserve runs an
// in-process fleet of -replicas serve.Servers — each with its own
// listener and registry — behind the front tier in internal/router. One
// binary, one -addr, N replicas that fail independently: the chaos proof
// (geobench -chaos) kills and revives fleet members through the router's
// /admin/replica surface while traffic keeps flowing.
package main

import (
	"log"

	"geoloc/internal/router"
	"geoloc/internal/serve"
)

// runRouter is run()'s -router branch: fleet up over the artifact file,
// router in front, the same SIGHUP/drain lifecycle as single-server mode.
func runRouter(o options, cfg serve.Config) error {
	fleet, err := router.NewFileFleet(o.replicas, o.dsPath, cfg)
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
		AdminToken:      o.adminToken,
		Controller:      fleet,
	}, o.reg)
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Close()

	log.Printf("routing %d records from %s across %d replicas on %s (faults=%s, mapped=%v)",
		art.Records, art.Source, o.replicas, o.addr, o.faultName, art.R2.Mapped())
	for i, r := range rt.Ranges() {
		log.Printf("  replica %d: first for %s-%s", i, r.Lo, r.Hi)
	}
	return listenAndServe(o, rt.Handler(), fleet.Servers(), rt.StartDrain)
}
