package netsim

import (
	"math"
	"testing"

	"geoloc/internal/faults"
	"geoloc/internal/rhash"
	"geoloc/internal/world"
)

// twoSims builds two simulators over identically-seeded worlds, the second
// carrying the given fault profile.
func twoSims(t *testing.T, prof *faults.Profile) (*Sim, *Sim) {
	t.Helper()
	clean := New(world.Generate(world.TinyConfig()), nil)
	faulty := New(world.Generate(world.TinyConfig()), nil)
	faulty.Faults = prof
	return clean, faulty
}

func TestNoneProfileBitIdentical(t *testing.T) {
	clean, faulty := twoSims(t, faults.None())
	for i := 0; i < 30; i++ {
		src := faulty.W.Host(faulty.W.Probes[i%len(faulty.W.Probes)])
		dst := faulty.W.Host(faulty.W.Anchors[i%len(faulty.W.Anchors)])
		csrc := clean.W.Host(src.ID)
		cdst := clean.W.Host(dst.ID)

		r1, ok1 := clean.Ping(csrc, cdst, uint64(i))
		r2, ok2 := faulty.Ping(src, dst, uint64(i))
		if r1 != r2 || ok1 != ok2 {
			t.Fatalf("ping %d: clean (%v, %v) != none-profile (%v, %v)", i, r1, ok1, r2, ok2)
		}

		t1 := clean.Traceroute(csrc, cdst, uint64(i))
		t2 := faulty.Traceroute(src, dst, uint64(i))
		if len(t1.Hops) != len(t2.Hops) || t1.DstRTTMs != t2.DstRTTMs ||
			t1.DstResponded != t2.DstResponded || t2.Truncated {
			t.Fatalf("traceroute %d differs under the none profile", i)
		}
		for h := range t1.Hops {
			if t1.Hops[h] != t2.Hops[h] {
				t.Fatalf("traceroute %d hop %d differs under the none profile", i, h)
			}
		}
	}
}

func TestPingDetailMatchesPing(t *testing.T) {
	s := New(world.Generate(world.TinyConfig()), nil)
	s.Faults = faults.Realistic()
	for i := 0; i < 50; i++ {
		src := s.W.Host(s.W.Probes[i%len(s.W.Probes)])
		dst := s.W.Host(s.W.Anchors[i%len(s.W.Anchors)])
		d := s.PingDetail(src, dst, uint64(i))
		rtt, ok := s.Ping(src, dst, uint64(i))
		if d.OK != ok || d.MinRTTMs != rtt {
			t.Fatalf("PingDetail and Ping disagree: (%v,%v) vs (%v,%v)", d.MinRTTMs, d.OK, rtt, ok)
		}
		if d.Sent != PingPackets || len(d.RTTs) != d.Sent {
			t.Fatalf("sent %d packets, want %d", d.Sent, PingPackets)
		}
		got := 0
		min := math.Inf(1)
		for _, r := range d.RTTs {
			if !math.IsNaN(r) {
				got++
				min = math.Min(min, r)
			}
		}
		if got != d.Received {
			t.Fatalf("received %d, counted %d", d.Received, got)
		}
		if d.OK && min != d.MinRTTMs {
			t.Fatalf("min RTT %v, reported %v", min, d.MinRTTMs)
		}
	}
}

func TestFaultsLosePacketsButPreserveSurvivingRTTs(t *testing.T) {
	clean, faulty := twoSims(t, &faults.Profile{PacketLoss: 0.5})
	lost := 0
	for i := 0; i < 200; i++ {
		src := faulty.W.Host(faulty.W.Probes[i%len(faulty.W.Probes)])
		dst := faulty.W.Host(faulty.W.Anchors[i%len(faulty.W.Anchors)])
		fd := faulty.PingDetail(src, dst, uint64(i))
		cd := clean.PingDetail(clean.W.Host(src.ID), clean.W.Host(dst.ID), uint64(i))
		lost += cd.Received - fd.Received
		if fd.Received > cd.Received {
			t.Fatal("fault layer cannot add packets")
		}
		for p := range fd.RTTs {
			if !math.IsNaN(fd.RTTs[p]) && fd.RTTs[p] != cd.RTTs[p] {
				t.Fatalf("surviving packet %d RTT changed: %v vs %v", p, fd.RTTs[p], cd.RTTs[p])
			}
		}
	}
	if lost == 0 {
		t.Error("50% packet loss lost nothing over 600 packets")
	}
}

func TestTracerouteTruncation(t *testing.T) {
	clean, faulty := twoSims(t, &faults.Profile{TraceTruncProb: 1})
	truncated := 0
	for i := 0; i < 50; i++ {
		src := faulty.W.Host(faulty.W.Probes[i%len(faulty.W.Probes)])
		dst := faulty.W.Host(faulty.W.Anchors[i%len(faulty.W.Anchors)])
		ft := faulty.Traceroute(src, dst, uint64(i))
		ct := clean.Traceroute(clean.W.Host(src.ID), clean.W.Host(dst.ID), uint64(i))
		if !ft.Truncated {
			continue
		}
		truncated++
		if ft.DstResponded || ft.DstRTTMs != 0 {
			t.Fatal("truncated traceroute must not reach the destination")
		}
		if len(ft.Hops) >= len(ct.Hops) && len(ct.Hops) > 0 {
			t.Fatalf("truncated trace kept %d of %d hops", len(ft.Hops), len(ct.Hops))
		}
		// Surviving hops carry the fault-free RTTs.
		for h := range ft.Hops {
			if ft.Hops[h].RTTMs != ct.Hops[h].RTTMs {
				t.Fatalf("hop %d RTT changed under truncation", h)
			}
		}
	}
	if truncated == 0 {
		t.Error("TraceTruncProb=1 truncated nothing")
	}
}

func TestHopLossSilencesHops(t *testing.T) {
	clean, faulty := twoSims(t, &faults.Profile{HopLossProb: 0.5})
	silenced := 0
	for i := 0; i < 50; i++ {
		src := faulty.W.Host(faulty.W.Probes[i%len(faulty.W.Probes)])
		dst := faulty.W.Host(faulty.W.Anchors[i%len(faulty.W.Anchors)])
		ft := faulty.Traceroute(src, dst, uint64(i))
		ct := clean.Traceroute(clean.W.Host(src.ID), clean.W.Host(dst.ID), uint64(i))
		for h := range ft.Hops {
			if ct.Hops[h].Responded && !ft.Hops[h].Responded {
				silenced++
			}
			if !ct.Hops[h].Responded && ft.Hops[h].Responded {
				t.Fatal("fault layer cannot resurrect a silent hop")
			}
		}
	}
	if silenced == 0 {
		t.Error("HopLossProb=0.5 silenced nothing")
	}
}

// refTraceroute is Traceroute as it was before TraceInto: a fresh hop
// slice per trace, the faults applied to it afterwards.
func refTraceroute(s *Sim, src, dst *world.Host, salt uint64) Trace {
	var sk skeleton
	cum, oneWay := s.trip(src, dst, &sk)
	st := rhash.New(s.W.Cfg.Seed, rhash.HashString("traceroute"), uint64(src.Addr), uint64(dst.Addr), salt)
	tr := Trace{Hops: make([]TraceHop, sk.n)}
	for i := range tr.Hops {
		h := s.hop(&sk, i, src, dst)
		jitter := st.Exp(icmpJitterMeanMs)
		if st.Bool(icmpSpikeProb) {
			jitter += math.Min(st.Exp(icmpSpikeMeanMs), icmpSpikeMaxMs)
		}
		tr.Hops[i] = TraceHop{RouterID: h.id, ASID: int(h.as), RTTMs: 2*cum[i] + jitter, Responded: st.Bool(0.95)}
	}
	tr.DstRTTMs = 2*oneWay + st.Exp(pingJitterMeanMs)
	tr.DstResponded = st.Bool(dst.RespScore)
	if f := s.Faults; f.Enabled() {
		seed, srcA, dstA := s.W.Cfg.Seed, uint64(src.Addr), uint64(dst.Addr)
		if cut := f.TruncateHop(seed, srcA, dstA, salt, len(tr.Hops)); cut >= 0 {
			tr.Hops, tr.DstRTTMs, tr.DstResponded, tr.Truncated = tr.Hops[:cut], 0, false, true
		}
		for i := range tr.Hops {
			if tr.Hops[i].Responded && f.HopLost(seed, srcA, dstA, salt, i) {
				tr.Hops[i].Responded = false
			}
		}
	}
	return tr
}

// TestTraceIntoMatchesReference holds TraceInto, writing every trace into
// one reused buffer, and the allocating Traceroute to refTraceroute on the
// Tiny world under the none and hostile profiles: hop by hop, DstRTTMs bit
// for bit, Truncated and DstResponded. The sampled pairs run every VP to
// a spread of hosts, anchors and probes alike, so the hostile run cuts
// traces and loses hop answers.
func TestTraceIntoMatchesReference(t *testing.T) {
	for _, prof := range []*faults.Profile{faults.None(), faults.Hostile()} {
		t.Run(prof.Name, func(t *testing.T) {
			s := New(world.Generate(world.TinyConfig()), nil)
			s.Faults = prof
			w := s.W
			var buf TraceBuf
			pairs, truncated := 0, 0
			for _, v := range append(append([]int(nil), w.Anchors...), w.Probes...) {
				src := w.Host(v)
				for j := 0; j < len(w.Hosts); j += 37 {
					dst := &w.Hosts[(j+v)%len(w.Hosts)]
					salt := uint64(pairs)
					want := refTraceroute(s, src, dst, salt)
					if got := s.TraceInto(&buf, src, dst, salt); !sameTrace(got, want) {
						t.Fatalf("TraceInto(%d → %d) = %+v, reference %+v", src.ID, dst.ID, got, want)
					}
					if got := s.Traceroute(src, dst, salt); !sameTrace(got, want) {
						t.Fatalf("Traceroute(%d → %d) = %+v, reference %+v", src.ID, dst.ID, got, want)
					}
					pairs++
					if want.Truncated {
						truncated++
					}
				}
			}
			if prof.Enabled() && truncated == 0 {
				t.Errorf("%d pairs and none truncated: the fault path went unexercised", pairs)
			}
		})
	}
}
