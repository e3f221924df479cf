package atlas

import (
	"errors"
	"reflect"
	"testing"

	"geoloc/internal/faults"
	"geoloc/internal/netsim"
	"geoloc/internal/world"
)

// faultyPlatform is a tiny world's platform whose simulator injects prof.
func faultyPlatform(prof *faults.Profile) *Platform {
	w := world.Generate(world.TinyConfig())
	sim := netsim.New(w, nil)
	sim.Faults = prof
	return New(w, sim)
}

func newClient(prof *faults.Profile) *Client {
	return NewClient(faultyPlatform(prof), prof)
}

func TestClientTransparentWithoutFaults(t *testing.T) {
	c := newClient(faults.None())
	raw := newPlatform()
	for i := 0; i < 40; i++ {
		src := c.P.W.Host(c.P.W.Probes[i%len(c.P.W.Probes)])
		dst := c.P.W.Host(c.P.W.Anchors[i%len(c.P.W.Anchors)])
		out := c.Ping(src, dst, uint64(i))
		rtt, ok := raw.Ping(raw.W.Host(src.ID), raw.W.Host(dst.ID), uint64(i))
		if out.OK != ok || (ok && out.RTTMs != rtt) {
			t.Fatalf("ping %d: client (%v,%v) != platform (%v,%v)", i, out.RTTMs, out.OK, rtt, ok)
		}
		if out.Attempts > 1 {
			t.Fatal("client must not retry when faults are disabled")
		}
	}
	if st := c.Stats(); st.Retries != 0 {
		t.Errorf("retries = %d under the none profile", st.Retries)
	}
}

func TestClientRetriesRecoverLosses(t *testing.T) {
	// Heavy packet loss but nothing else: retries should recover most
	// measurements a single attempt — the raw platform's ping — loses.
	prof := &faults.Profile{PacketLoss: 0.6}
	single := faultyPlatform(prof)
	retrying := newClient(prof)

	var okSingle, okRetrying int
	n := 150
	for i := 0; i < n; i++ {
		src := single.W.Host(single.W.Probes[i%len(single.W.Probes)])
		dst := single.W.Host(single.W.Anchors[i%len(single.W.Anchors)])
		if _, ok := single.Ping(src, dst, uint64(i)); ok {
			okSingle++
		}
		src2 := retrying.P.W.Host(src.ID)
		dst2 := retrying.P.W.Host(dst.ID)
		if retrying.Ping(src2, dst2, uint64(i)).OK {
			okRetrying++
		}
	}
	if okRetrying <= okSingle {
		t.Errorf("retries recovered nothing: %d/%d ok with retries vs %d/%d without",
			okRetrying, n, okSingle, n)
	}
	if st := retrying.Stats(); st.Retries == 0 {
		t.Error("expected retries under 60% packet loss")
	}
}

func TestClientDeterministic(t *testing.T) {
	run := func() ([]PingOutcome, ClientStats) {
		c := newClient(faults.Realistic())
		outs := make([]PingOutcome, 0, 100)
		for i := 0; i < 100; i++ {
			src := c.P.W.Host(c.P.W.Probes[i%len(c.P.W.Probes)])
			dst := c.P.W.Host(c.P.W.Anchors[i%len(c.P.W.Anchors)])
			outs = append(outs, c.Ping(src, dst, uint64(i)))
		}
		return outs, c.Stats()
	}
	a, sa := run()
	b, sb := run()
	for i := range a {
		if a[i].RTTMs != b[i].RTTMs || a[i].OK != b[i].OK || a[i].Attempts != b[i].Attempts {
			t.Fatalf("outcome %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if sa != sb {
		t.Fatalf("client stats differ across identical runs:\n%+v\n%+v", sa, sb)
	}
}

func TestCircuitBreakerQuarantines(t *testing.T) {
	// Every host flaps and is down half the time with a long period, so a
	// probe caught in a down window fails every attempt and trips the
	// breaker within two measurements.
	prof := &faults.Profile{FlapFrac: 1, FlapPeriodSec: 1e7, FlapDownFrac: 0.5}
	c := newClient(prof)

	// Find a probe that is down at clock 0.
	seed := c.P.W.Cfg.Seed
	var src *world.Host
	for _, id := range c.P.W.Probes {
		h := c.P.W.Host(id)
		if prof.HostDown(seed, uint64(h.Addr), 0) {
			src = h
			break
		}
	}
	if src == nil {
		t.Skip("no probe down at time zero in this world")
	}
	dst := c.P.W.Host(c.P.W.Anchors[0])
	sawQuarantine := false
	for i := 0; i < 20; i++ {
		out := c.Ping(src, dst, uint64(i))
		if errors.Is(out.Err, ErrQuarantined) {
			sawQuarantine = true
			break
		}
	}
	if !sawQuarantine {
		t.Fatal("breaker never quarantined a persistently-offline probe")
	}
	if st := c.state(src.ID); st.clockUSec >= st.quarUntilUSc {
		t.Error("quarantined probe's quarantine already over")
	}
	if st := c.Stats(); st.Quarantines == 0 || st.SkippedQuarantined == 0 {
		t.Errorf("stats missed the quarantine: %+v", st)
	}
}

func TestClientTimeAccounting(t *testing.T) {
	c := newClient(faults.None())
	src := c.P.W.Host(c.P.W.Probes[0])
	dst := c.P.W.Host(c.P.W.Anchors[0])
	for i := 0; i < 10; i++ {
		c.Ping(src, dst, uint64(i))
	}
	// Ten pings pace at PingPackets / pps seconds each.
	want := 10 * float64(netsim.PingPackets) / c.P.ProbePPS(src)
	got := c.Stats().CampaignSec
	if got < want*0.99 || got > want*1.01 {
		t.Errorf("campaign sec = %v, want ~%v", got, want)
	}
}

// TestTallyFieldsCoverStruct: fields() is the one list behind Tally.add and
// the journal row, so it must name every field of the record exactly once.
func TestTallyFieldsCoverStruct(t *testing.T) {
	var b BatchStats
	for i, f := range b.fields() {
		*f = int64(i + 1)
	}
	var got []int64
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Struct {
				walk(f)
			} else {
				got = append(got, f.Int())
			}
		}
	}
	walk(reflect.ValueOf(b))
	if len(got) != b.NumFields() {
		t.Fatalf("BatchStats has %d fields, fields() lists %d", len(got), b.NumFields())
	}
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("field %d holds %d: fields() skips or repeats a field, or lists them out of declaration order", i, v)
		}
	}
}

// TestClientStateAllocs pins a source's state lookup at zero allocations,
// first touch included: every host's state is in the client from the
// start.
func TestClientStateAllocs(t *testing.T) {
	c := newClient(faults.Hostile())
	hosts := c.P.W.Hosts
	i := 0
	if n := testing.AllocsPerRun(len(hosts), func() {
		if st := c.state(hosts[i%len(hosts)].ID); st != &c.srcs[hosts[i%len(hosts)].ID] {
			t.Fatal("state is not the host's slot")
		}
		i++
	}); n != 0 {
		t.Errorf("Client.state allocates %.2f per call", n)
	}
}
