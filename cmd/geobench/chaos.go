// The replica-chaos proof (-chaos): geobench kills a fleet member
// through the router's /admin/replica surface mid-run, revives it, and
// then holds the run to the replicated-serving contract:
//
//   - zero dropped requests — the router must absorb the crash; a client
//     never sees a connection error or timeout,
//   - every 503 confined to the outage window (kill → readmission) and
//     carrying a Retry-After hint — with any other replica live there is
//     none at all; a fleet of one answers 503 for exactly as long as its
//     only replica is actually gone,
//   - the outage exercised, as the fleet size the router's /healthz
//     lists implies: with more than one replica at least one answer was
//     failed over; with one, at least one in-window 503,
//   - exact failover accounting (with -metrics-check): the sum of
//     X-Router-Failovers headers the CLIENT saw equals the router's
//     georouter.failovers counter delta, and every 503 is matched by a
//     georouter.range_unavailable increment (checked by metrics.go's
//     accounting pass, from the same scrape as the status ledger).
//
// The victim is the HOT replica — the one the partition sends
// the baseline artifact's addresses to first — because killing a replica
// no lookup starts at proves little about failover.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"geoloc/internal/dataset"
	"geoloc/internal/router"
)

// readmitWait bounds how long finish waits for the revived replica to
// pass its probes after the load is done.
const readmitWait = 30 * time.Second

// chaosRun coordinates the kill/revive schedule against the run's
// completed-request counter (request counts, not wall clock, so the
// schedule is stable across machine speeds). The schedule is fixed: kill
// once a quarter of the requests have completed, revive at 55 %, which
// leaves the readmission probes room to finish under load.
type chaosRun struct {
	cfg      Config
	client   *http.Client
	replica  int // the victim
	replicas int // fleet size, from the router's /healthz
	start    time.Time

	killAfter, restartAfter int64
	killOnce, restartOnce   sync.Once
	killTNs                 atomic.Int64 // run-relative; 0 = not happened
	readmitTNs              atomic.Int64

	mu               sync.Mutex
	killErr, restErr error
	pollWG           sync.WaitGroup
}

// routerHealthDoc mirrors the router's /healthz document.
type routerHealthDoc struct {
	Replicas []struct {
		ID    int    `json:"id"`
		State string `json:"state"`
	} `json:"replicas"`
}

// fetchRouterHealth reads the router's fleet table.
func fetchRouterHealth(client *http.Client, base string) (routerHealthDoc, error) {
	var doc routerHealthDoc
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("/healthz answered %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc, err
	}
	if len(doc.Replicas) == 0 {
		return doc, fmt.Errorf("target is not a router: /healthz has no replica table")
	}
	return doc, nil
}

// newChaosRun validates the target is a router and picks the victim.
func newChaosRun(cfg Config, client *http.Client, ds *dataset.Dataset) (*chaosRun, error) {
	if cfg.AdminToken == "" {
		return nil, fmt.Errorf("chaos mode needs -admin-token (the kill goes through /admin/replica)")
	}
	doc, err := fetchRouterHealth(client, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("chaos target: %w", err)
	}
	// The victim is the hot replica: where lookups of the baseline
	// artifact's first record start. The load's hit mix is drawn from the
	// artifact, so this is where the traffic actually lands.
	n := len(doc.Replicas)
	victim := router.Partition(n).ReplicaFor(ds.Records[0].Prefix.Addr(0))
	return &chaosRun{
		cfg: cfg, client: client, replica: victim, replicas: n,
		killAfter:    int64(cfg.Requests / 4),
		restartAfter: int64(cfg.Requests * 55 / 100),
	}, nil
}

// maybeTrigger fires the kill and the revival at their completed-request
// thresholds; called by every worker after every request.
func (c *chaosRun) maybeTrigger(done int64) {
	if done >= c.killAfter {
		c.killOnce.Do(c.kill)
	}
	if done >= c.restartAfter {
		c.restartOnce.Do(c.restart)
	}
}

// adminReplica drives the router's fleet-control surface.
func (c *chaosRun) adminReplica(action string) error {
	req, err := http.NewRequest(http.MethodPost,
		fmt.Sprintf("%s/admin/replica?replica=%d&action=%s", c.cfg.BaseURL, c.replica, action), nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Admin-Token", c.cfg.AdminToken)
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/admin/replica %s answered %d", action, resp.StatusCode)
	}
	return nil
}

// kill crashes the victim. The timestamp is taken BEFORE the stop
// request goes out, so no 503 can legitimately precede it.
func (c *chaosRun) kill() {
	c.killTNs.Store(time.Since(c.start).Nanoseconds())
	if err := c.adminReplica("stop"); err != nil {
		c.mu.Lock()
		c.killErr = err
		c.mu.Unlock()
		c.killTNs.Store(0)
	}
}

// restart revives the victim and starts the readmission poll in the
// background: the outage window closes when the ROUTER says the replica
// is up again (probes passed), not when the process is back.
func (c *chaosRun) restart() {
	if err := c.adminReplica("start"); err != nil {
		c.mu.Lock()
		c.restErr = err
		c.mu.Unlock()
		return
	}
	c.pollWG.Add(1)
	go func() {
		defer c.pollWG.Done()
		deadline := time.Now().Add(readmitWait)
		for time.Now().Before(deadline) {
			doc, err := fetchRouterHealth(c.client, c.cfg.BaseURL)
			if err == nil && c.replica < len(doc.Replicas) && doc.Replicas[c.replica].State == "up" {
				c.readmitTNs.Store(time.Since(c.start).Nanoseconds())
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
	}()
}

// finish folds the chaos verdict into the report, once the readmission
// poll is over: schedule sanity, the client-side failover ledger, and the
// outage-window confinement of every 503.
func (c *chaosRun) finish(rep *Report, samples []sample) {
	rep.ChaosReplica = c.replica
	killT, readmitT := c.killTNs.Load(), c.readmitTNs.Load()
	rep.KillAtSec = float64(killT) / 1e9
	rep.ReadmitAtSec = float64(readmitT) / 1e9

	c.mu.Lock()
	killErr, restErr := c.killErr, c.restErr
	c.mu.Unlock()
	switch {
	case killErr != nil:
		rep.Violations = append(rep.Violations, fmt.Sprintf("chaos kill failed: %v", killErr))
	case killT == 0:
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("chaos kill never triggered (due after %d of %d requests)", c.killAfter, c.cfg.Requests))
	case restErr != nil:
		rep.Violations = append(rep.Violations, fmt.Sprintf("chaos restart failed: %v", restErr))
	case readmitT == 0:
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("replica %d was never re-admitted within %s of the restart", c.replica, readmitWait))
	default:
		rep.ChaosPerformed = true
	}

	in503, out503, noRetryAfter := 0, 0, 0
	for _, s := range samples {
		rep.ClientFailovers += s.failovers
		if s.status != http.StatusServiceUnavailable {
			continue
		}
		if s.noRetryAfter {
			noRetryAfter++
		}
		// In-window: the answer arrived after the kill went out, and the
		// request started before the router re-admitted the replica.
		if killT > 0 && s.t1Ns >= killT && (readmitT == 0 || s.t0Ns <= readmitT) {
			in503++
		} else {
			out503++
		}
	}
	if out503 > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%d requests answered 503 OUTSIDE the outage window [%.2fs, %.2fs]",
				out503, rep.KillAtSec, rep.ReadmitAtSec))
	}
	if noRetryAfter > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%d 503 answers missing the Retry-After hint", noRetryAfter))
	}
	if c.replicas > 1 && rep.ClientFailovers == 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("chaos run on %d replicas absorbed no failure: zero failed-over answers", c.replicas))
	}
	if c.replicas == 1 && in503 == 0 {
		rep.Violations = append(rep.Violations,
			"chaos run on a fleet of one never exercised the degraded path: zero in-window 503s")
	}
}
