package atlas_test

import (
	"context"
	"testing"

	"geoloc/internal/atlas"
	"geoloc/internal/experiments"
	"geoloc/internal/netsim"
	"geoloc/internal/world"
)

// TestClientStatsMatchTally: the client's totals and a caller's record are
// moved by the same tally, so under every chaos profile N measurements
// recorded into one shared BatchStats leave Client.Stats() equal to it —
// cancellations included — and the client's credits are its pings at the
// platform's per-ping cost.
func TestClientStatsMatchTally(t *testing.T) {
	w := world.Generate(world.TinyConfig())
	for _, prof := range experiments.ChaosProfiles() {
		sim := netsim.New(w, nil)
		sim.Faults = prof
		p := atlas.New(w, sim)
		c := atlas.NewClient(p, prof)

		ctx, cancel := context.WithCancel(context.Background())
		var tally atlas.BatchStats
		const n = 300
		for i := 0; i < n; i++ {
			if i == n-10 {
				cancel()
			}
			src := w.Host(w.Probes[i%len(w.Probes)])
			dst := w.Host(w.Anchors[i%len(w.Anchors)])
			c.PingBatch(ctx, src, dst, uint64(i), &tally)
		}
		cancel()

		cs := c.Stats()
		if cs.Tally != tally.Tally {
			t.Fatalf("%s: client totals drifted from the tally:\n%+v\n%+v", prof.Name, cs.Tally, tally.Tally)
		}
		if cs.Measurements != n || cs.Canceled != 10 {
			t.Fatalf("%s: %d measurements, %d canceled; want %d, 10", prof.Name, cs.Measurements, cs.Canceled, n)
		}
		if want := tally.Pings * int64(sim.Cfg.PingPackets) * atlas.CreditsPerPingPacket; cs.CreditsSpent != want {
			t.Fatalf("%s: client credits %d, want %d", prof.Name, cs.CreditsSpent, want)
		}
		if ps := p.Stats(); ps.Pings != tally.Pings {
			t.Fatalf("%s: platform counted %d pings, the tally %d", prof.Name, ps.Pings, tally.Pings)
		}
	}
}
