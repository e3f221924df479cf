package atlas

import (
	"sync"
	"testing"

	"geoloc/internal/netsim"
	"geoloc/internal/world"
)

func newPlatform() *Platform {
	w := world.Generate(world.TinyConfig())
	return New(w, netsim.New(w, nil))
}

func TestPingCountsAndCredits(t *testing.T) {
	p := newPlatform()
	src := p.W.Host(p.W.Probes[0])
	dst := p.W.Host(p.W.Anchors[0])
	if _, ok := p.Ping(src, dst, 1); !ok {
		t.Log("ping unanswered (allowed)")
	}
	st := p.Stats()
	if st.Pings != 1 {
		t.Errorf("pings = %d", st.Pings)
	}
	wantCredits := int64(p.Sim.Cfg.PingPackets) * CreditsPerPingPacket
	if st.Credits != wantCredits {
		t.Errorf("credits = %d, want %d", st.Credits, wantCredits)
	}
}

func TestTracerouteCounts(t *testing.T) {
	p := newPlatform()
	src := p.W.Host(p.W.Probes[1])
	dst := p.W.Host(p.W.Anchors[1])
	tr := p.Traceroute(src, dst, 1)
	if len(tr.Hops) == 0 {
		t.Error("traceroute returned no hops")
	}
	st := p.Stats()
	if st.Traceroutes != 1 || st.Credits != CreditsPerTraceroute {
		t.Errorf("stats = %+v", st)
	}
}

func TestConcurrentCounting(t *testing.T) {
	p := newPlatform()
	src := p.W.Host(p.W.Probes[0])
	dst := p.W.Host(p.W.Anchors[0])
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.Ping(src, dst, uint64(w*per+i))
			}
		}(w)
	}
	wg.Wait()
	if st := p.Stats(); st.Pings != workers*per {
		t.Errorf("pings = %d, want %d", st.Pings, workers*per)
	}
}

func TestProbePPSBudgets(t *testing.T) {
	p := newPlatform()
	for _, id := range p.W.Anchors {
		pps := p.ProbePPS(p.W.Host(id))
		if pps < 200 || pps > 400 {
			t.Fatalf("anchor pps = %.0f, want 200-400", pps)
		}
	}
	for _, id := range p.W.Probes {
		pps := p.ProbePPS(p.W.Host(id))
		if pps < 4 || pps > 12 {
			t.Fatalf("probe pps = %.0f, want 4-12", pps)
		}
	}
}

func TestProbePPSDeterministic(t *testing.T) {
	p := newPlatform()
	h := p.W.Host(p.W.Probes[0])
	if p.ProbePPS(h) != p.ProbePPS(h) {
		t.Error("pps should be stable per host")
	}
}

func TestRoundSecondsWithinBounds(t *testing.T) {
	p := newPlatform()
	for salt := uint64(0); salt < 100; salt++ {
		s := p.RoundSeconds(salt)
		min := p.Cost.APISubmitSec + p.Cost.SchedulingMinSec
		max := p.Cost.APISubmitSec + p.Cost.SchedulingMaxSec
		if s < min || s > max {
			t.Fatalf("round seconds %.1f outside [%.1f, %.1f]", s, min, max)
		}
	}
}

func TestCampaignSecondsSlowProbeDominates(t *testing.T) {
	p := newPlatform()
	// A probe-only campaign is far slower than an anchor-only one for the
	// same packet count: this is why the VP selection algorithm cannot be
	// deployed on RIPE Atlas (§5.1.3).
	probeTime := p.CampaignSeconds(p.W.Probes[:10], 1000)
	anchorTime := p.CampaignSeconds(p.W.Anchors[:10], 1000)
	if probeTime < 10*anchorTime {
		t.Errorf("probe campaign (%.0fs) should be much slower than anchor campaign (%.0fs)",
			probeTime, anchorTime)
	}
}

func TestCampaignSecondsEmpty(t *testing.T) {
	p := newPlatform()
	if s := p.CampaignSeconds(nil, 100); s != 0 {
		t.Errorf("empty campaign = %v", s)
	}
	if s := p.CampaignSeconds([]int{}, 100); s != 0 {
		t.Errorf("empty slice campaign = %v", s)
	}
	if s := p.CampaignSeconds(p.W.Probes[:3], 0); s != 0 {
		t.Errorf("zero-packet campaign = %v", s)
	}
	if s := p.CampaignSeconds(p.W.Probes[:3], -5); s != 0 {
		t.Errorf("negative-packet campaign = %v", s)
	}
}

// TestStatsSnapshotConsistent hammers Ping/Traceroute/Stats concurrently
// and asserts every snapshot satisfies the credit invariant: credits are
// exactly what the counted measurements cost. A torn snapshot (ping
// counted, credits not yet charged) breaks it. Run under -race this also
// exercises the counters' synchronization.
func TestStatsSnapshotConsistent(t *testing.T) {
	p := newPlatform()
	src := p.W.Host(p.W.Probes[0])
	dst := p.W.Host(p.W.Anchors[0])
	pingCost := int64(p.Sim.Cfg.PingPackets) * CreditsPerPingPacket

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := p.Stats()
			if want := st.Pings*pingCost + st.Traceroutes*CreditsPerTraceroute; st.Credits != want {
				t.Errorf("torn snapshot: %+v (want credits %d)", st, want)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				p.Ping(src, dst, uint64(w*1000+i))
				if i%7 == 0 {
					p.Traceroute(src, dst, uint64(w*1000+i))
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	st := p.Stats()
	if want := st.Pings*pingCost + st.Traceroutes*CreditsPerTraceroute; st.Credits != want {
		t.Errorf("final stats inconsistent: %+v", st)
	}
}

func TestMappingAndWebTestSeconds(t *testing.T) {
	p := newPlatform()
	if s := p.MappingSeconds(800); s < 99 || s > 101 {
		t.Errorf("800 mapping queries = %.1fs, want ~100 at 8/s", s)
	}
	if s := p.WebTestSeconds(3200); s < 90 || s > 100 {
		t.Errorf("3200 web tests = %.1fs, want ~95 at 0.95s/32-wide", s)
	}
}

func TestPingDeterministicAcrossPlatforms(t *testing.T) {
	p1 := newPlatform()
	p2 := newPlatform()
	src1, dst1 := p1.W.Host(p1.W.Probes[2]), p1.W.Host(p1.W.Anchors[2])
	src2, dst2 := p2.W.Host(p2.W.Probes[2]), p2.W.Host(p2.W.Anchors[2])
	r1, ok1 := p1.Ping(src1, dst1, 9)
	r2, ok2 := p2.Ping(src2, dst2, 9)
	if r1 != r2 || ok1 != ok2 {
		t.Error("identical worlds should give identical measurements")
	}
}
