package router

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/serve"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

var (
	fleetTinyOnce sync.Once
	fleetTinyDS   *dataset.Dataset
)

func fleetTinyDataset() *dataset.Dataset {
	fleetTinyOnce.Do(func() {
		c := core.NewCampaign(world.TinyConfig())
		fleetTinyDS = dataset.Compile(c, dataset.Options{IncludeUnsanitized: true})
	})
	return fleetTinyDS
}

// newFleetRouter stands up a LocalFleet of n real serve replicas over the
// tiny dataset plus a router (probes running) in front of it.
func newFleetRouter(t *testing.T, n int, cfg Config) (*LocalFleet, *Router, *httptest.Server) {
	t.Helper()
	return startFleetRouter(t, fleetTinyDataset(), "test:tiny", n, serve.Config{}, cfg)
}

// startFleetRouter is newFleetRouter over any dataset and replica config.
func startFleetRouter(t *testing.T, ds *dataset.Dataset, source string, n int, scfg serve.Config, cfg Config) (*LocalFleet, *Router, *httptest.Server) {
	t.Helper()
	fleet, err := NewLocalFleet(n, ds, source, scfg)
	if err != nil {
		t.Fatalf("NewLocalFleet: %v", err)
	}
	rt, ts := frontFleet(t, fleet, cfg)
	return fleet, rt, ts
}

// frontFleet puts a started router (and an httptest listener) in front of
// fleet; the test's cleanup closes all three.
func frontFleet(t *testing.T, fleet *LocalFleet, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	t.Cleanup(fleet.Close)
	cfg.ReplicaURLs = fleet.Addrs()
	cfg.Controller = fleet
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 10 * time.Millisecond
	}
	if cfg.UpstreamTimeout == 0 {
		cfg.UpstreamTimeout = time.Second
	}
	rt, err := New(cfg, telemetry.New())
	if err != nil {
		t.Fatalf("New router: %v", err)
	}
	rt.onHealth = poke
	rt.Start()
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(poking(rt.Handler()))
	t.Cleanup(ts.Close)
	return rt, ts
}

// hotIP returns an address the tiny dataset actually has a record for —
// the traffic every chaos scenario aims at.
func hotIP() string {
	return fleetTinyDataset().Records[0].Prefix.Addr(1).String()
}

// TestLocalFleetStopStart pins the fleet lifecycle contract: Stop is an
// abrupt crash, Start revives the replica on its ORIGINAL address (the
// router's replica table is fixed), and double stop/start error.
func TestLocalFleetStopStart(t *testing.T) {
	fleet, err := NewLocalFleet(2, fleetTinyDataset(), "test:tiny", serve.Config{})
	if err != nil {
		t.Fatalf("NewLocalFleet: %v", err)
	}
	defer fleet.Close()
	addrs := fleet.Addrs()

	resp, err := http.Get(addrs[0] + "/healthz")
	if err != nil {
		t.Fatalf("replica 0 before stop: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if err := fleet.StopReplica(0); err != nil {
		t.Fatalf("StopReplica: %v", err)
	}
	if err := fleet.StopReplica(0); err == nil {
		t.Error("double stop did not error")
	}
	if _, err := http.Get(addrs[0] + "/healthz"); err == nil {
		t.Fatal("stopped replica still answers")
	}

	if err := fleet.StartReplica(0); err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	if err := fleet.StartReplica(0); err == nil {
		t.Error("double start did not error")
	}
	if addrs2 := fleet.Addrs(); addrs2[0] != addrs[0] {
		t.Fatalf("replica 0 moved from %s to %s on restart", addrs[0], addrs2[0])
	}
	// StartReplica returns with the listener bound, so the first request
	// waits in its backlog until the server accepts it: no retry. A fresh
	// connection, not one the default client pooled before the stop.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err = client.Get(addrs[0] + "/healthz")
	if err != nil {
		t.Fatalf("restarted replica: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted replica answered %d, want 200", resp.StatusCode)
	}
}

// TestLocalFleetStall pins the stall primitive: a stalled replica
// accepts the connection and then hangs until the request context dies.
func TestLocalFleetStall(t *testing.T) {
	fleet, err := NewLocalFleet(1, fleetTinyDataset(), "test:tiny", serve.Config{})
	if err != nil {
		t.Fatalf("NewLocalFleet: %v", err)
	}
	defer fleet.Close()
	if err := fleet.StallReplica(0, true); err != nil {
		t.Fatalf("StallReplica: %v", err)
	}
	client := &http.Client{Timeout: 200 * time.Millisecond}
	if _, err := client.Get(fleet.Addrs()[0] + "/healthz"); err == nil {
		t.Fatal("stalled replica answered")
	}
	if err := fleet.StallReplica(0, false); err != nil {
		t.Fatalf("unstall: %v", err)
	}
	resp, err := client.Get(fleet.Addrs()[0] + "/healthz")
	if err != nil {
		t.Fatalf("unstalled replica: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestRouterSurvivesCrashedReplica is the in-package chaos rehearsal: a
// 4-replica fleet, the hot replica crashed mid-run — every lookup keeps
// answering 200 (failing over), the crash shows up in the health table,
// and the revived replica is re-admitted.
func TestRouterSurvivesCrashedReplica(t *testing.T) {
	fleet, rt, ts := newFleetRouter(t, 4, Config{
		DownAfter: 2,
		UpAfter:   2,
	})
	ip := hotIP()
	hot := rt.Ranges().ReplicaFor(fleetTinyDataset().Records[0].Prefix.Addr(0))

	get := func() (int, string) {
		resp, err := http.Get(ts.URL + "/lookup?ip=" + ip)
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("X-Router-Replica")
	}

	if code, rep := get(); code != http.StatusOK || rep == "" {
		t.Fatalf("pre-crash lookup: %d via %q", code, rep)
	}
	if err := fleet.StopReplica(hot); err != nil {
		t.Fatalf("StopReplica(%d): %v", hot, err)
	}
	// Every request during the outage must still answer 200 — the next
	// replica has the same artifact. (A few early ones pay a failover.)
	for i := 0; i < 20; i++ {
		if code, _ := get(); code != http.StatusOK {
			t.Fatalf("lookup %d during outage: %d, want 200 via failover", i, code)
		}
	}
	waitReplicaState(t, ts.URL, hot, "down")
	if err := fleet.StartReplica(hot); err != nil {
		t.Fatalf("StartReplica(%d): %v", hot, err)
	}
	waitReplicaState(t, ts.URL, hot, "up")
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("post-recovery lookup: %d", code)
	}
}

// TestAdminReplicaDrivesFleet pins the HTTP chaos surface end to end:
// stop and start through /admin/replica actually crash and revive the
// serve replica behind the router.
func TestAdminReplicaDrivesFleet(t *testing.T) {
	fleet, _, ts := newFleetRouter(t, 2, Config{
		AdminToken: "sekrit",
	})
	post := func(q string) int {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/admin/replica?"+q, nil)
		req.Header.Set("X-Admin-Token", "sekrit")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("admin: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("replica=1&action=stop"); got != http.StatusOK {
		t.Fatalf("stop via admin: %d", got)
	}
	if _, err := http.Get(fleet.Addrs()[1] + "/healthz"); err == nil {
		t.Fatal("replica 1 still answers after admin stop")
	}
	if got := post("replica=1&action=stop"); got != http.StatusConflict {
		t.Errorf("double stop via admin: %d, want 409", got)
	}
	if got := post("replica=1&action=start"); got != http.StatusOK {
		t.Fatalf("start via admin: %d", got)
	}
	if got := post("replica=1&action=start"); got != http.StatusConflict {
		t.Errorf("double start via admin: %d, want 409 (replica 1 running)", got)
	}
}

// TestRouterVersionProxies pins /version: the router answers with the
// fleet's artifact identity from any live replica.
func TestRouterVersionProxies(t *testing.T) {
	_, _, ts := newFleetRouter(t, 2, Config{})
	resp, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/version: %d", resp.StatusCode)
	}
	var v struct {
		Records int    `json:"records"`
		Source  string `json:"source"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if v.Records != len(fleetTinyDataset().Records) || v.Source != "test:tiny" {
		t.Errorf("version = %+v, want the fleet artifact", v)
	}
}

// TestRouterVersionSkipsStalledReplica pins /version's per-attempt budget:
// a stalled first replica spends its own UpstreamTimeout, not the next
// replica's, so the live second replica still answers.
func TestRouterVersionSkipsStalledReplica(t *testing.T) {
	fleet, _, ts := newFleetRouter(t, 2, Config{UpstreamTimeout: 100 * time.Millisecond})
	if err := fleet.StallReplica(0, true); err != nil {
		t.Fatalf("StallReplica: %v", err)
	}
	// Probes time out after ProbeTimeout (1 s) and need DownAfter of them,
	// so replica 0 is still up, and tried first, for this request.
	resp, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Router-Replica") != "1" {
		t.Fatalf("/version = %d via %q, want 200 via replica 1", resp.StatusCode, resp.Header.Get("X-Router-Replica"))
	}
}
