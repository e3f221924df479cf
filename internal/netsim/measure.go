package netsim

import (
	"math"

	"geoloc/internal/rhash"
	"geoloc/internal/world"
)

// PingResult carries the per-packet outcomes of one ping measurement.
// RIPE Atlas reports every packet of a ping, not just one RTT; with fault
// injection enabled the distinction matters, because a measurement can be
// partially answered (some packets lost, some not).
type PingResult struct {
	// RTTs holds one entry per packet sent; NaN marks a lost packet.
	RTTs []float64
	// Sent and Received count the packets of this measurement.
	Sent, Received int
	// MinRTTMs is the minimum over answered packets (the value every
	// latency-to-distance conversion uses); 0 when no packet was answered.
	MinRTTMs float64
	// OK is false when no packet was answered.
	OK bool
}

// Ping simulates one ping measurement (Cfg.PingPackets packets) from src to
// dst and returns the minimum observed RTT in milliseconds. ok is false when
// no packet was answered (the destination's responsiveness score governs
// reply probability). salt distinguishes repeated measurements of the same
// pair; reusing a salt reproduces the measurement exactly. Ping allocates
// nothing once the pair's skeleton is in the table.
func (s *Sim) Ping(src, dst *world.Host, salt uint64) (float64, bool) {
	min, _, ok := s.ping(src, dst, salt, nil)
	return min, ok
}

// PingDetail simulates one ping measurement and returns per-packet
// results. The base delay draws (jitter, responsiveness) are identical to
// the fault-free simulator's; the fault layer only drops packets on top,
// from its own key namespace, so enabling faults never changes the RTT of
// a packet that survives.
func (s *Sim) PingDetail(src, dst *world.Host, salt uint64) PingResult {
	res := PingResult{
		RTTs: make([]float64, s.Cfg.PingPackets),
		Sent: s.Cfg.PingPackets,
	}
	res.MinRTTMs, res.Received, res.OK = s.ping(src, dst, salt, res.RTTs)
	return res
}

// ping is Ping and PingDetail: it returns the minimum RTT over answered
// packets, how many were answered, and whether any was. When rtts is
// non-nil it receives every packet's RTT, NaN for a lost one.
func (s *Sim) ping(src, dst *world.Host, salt uint64, rtts []float64) (min float64, received int, ok bool) {
	s.m.pings.Inc()
	base := s.BaseRTTMs(src, dst)
	seed, srcA, dstA := s.W.Cfg.Seed, uint64(src.Addr), uint64(dst.Addr)
	st := rhash.Keyed(rhash.Hash(seed, rhash.HashString("ping"), srcA, dstA, salt))
	f := s.Faults
	injecting := f.Enabled()
	var loss float64
	if injecting {
		loss = f.PathLossRate(seed, srcA, dstA)
	}
	for p := 0; p < s.Cfg.PingPackets; p++ {
		if rtts != nil {
			rtts[p] = math.NaN()
		}
		jitter := st.Exp(s.Cfg.PingJitterMeanMs)
		answered := st.Bool(dst.RespScore)
		if !answered {
			continue
		}
		if injecting && f.PacketLost(loss, seed, srcA, dstA, salt, p) {
			continue
		}
		rtt := base + jitter
		if rtts != nil {
			rtts[p] = rtt
		}
		received++
		if !ok || rtt < min {
			min, ok = rtt, true
		}
	}
	s.m.pingPacketsLost.Add(int64(s.Cfg.PingPackets - received))
	return min, received, ok
}

// TraceHop is one line of simulated traceroute output.
type TraceHop struct {
	RouterID uint64
	ASID     int
	// RTTMs is the measured round-trip time to this hop, including the ICMP
	// generation jitter that makes hop RTTs noisy (appendix B of the paper).
	RTTMs float64
	// Responded is false for hops that dropped the probe (shown as '*').
	Responded bool
}

// Trace is a simulated traceroute: the router hops followed by the
// destination's response.
type Trace struct {
	Hops []TraceHop
	// DstRTTMs is the RTT measured to the destination itself.
	DstRTTMs float64
	// DstResponded is false when the destination never answered.
	DstResponded bool
	// Truncated is true when the fault layer cut the traceroute short: the
	// tail hops are missing (not merely silent) and the destination was
	// never reached. Consumers must treat DstRTTMs as meaningless then.
	Truncated bool
}

// TraceBuf is caller-owned storage for one traceroute's hops: room for
// the longest route. TraceInto writes into it, so a caller issuing many
// traceroutes reuses one buffer and allocates nothing per trace.
type TraceBuf [maxRouters]TraceHop

// Traceroute simulates a traceroute from src to dst into a fresh buffer.
// It is TraceInto for callers that keep a trace past the next one.
func (s *Sim) Traceroute(src, dst *world.Host, salt uint64) Trace {
	return s.TraceInto(new(TraceBuf), src, dst, salt)
}

// TraceInto simulates a traceroute from src to dst, writing its hops into
// buf: the returned Trace's Hops alias buf and are valid until buf is
// written again. Hop RTTs carry ICMP control-plane jitter: routers answer
// time-exceeded probes lazily, so a hop's RTT routinely exceeds the
// destination's, which is precisely why RTT-difference delay estimation
// (D1+D2 in the street level paper) is unreliable. With fault injection
// enabled the traceroute may additionally lose its tail (Truncated) or
// individual hop answers. TraceInto allocates nothing once the pair's
// skeleton is in the table.
func (s *Sim) TraceInto(buf *TraceBuf, src, dst *world.Host, salt uint64) Trace {
	s.m.traceroutes.Inc()
	sk, cum, oneWay := s.trip(src, dst)
	st := rhash.Keyed(rhash.Hash(s.W.Cfg.Seed, rhash.HashString("traceroute"),
		uint64(src.Addr), uint64(dst.Addr), salt))
	var hops []skeletonHop
	if sk != nil {
		hops = sk.hops[:sk.n]
	}
	tr := Trace{Hops: buf[:len(hops)]}
	for i, h := range hops {
		jitter := st.Exp(s.Cfg.ICMPJitterMeanMs)
		if st.Bool(s.Cfg.ICMPSpikeProb) {
			spike := st.Exp(s.Cfg.ICMPSpikeMeanMs)
			if spike > s.Cfg.ICMPSpikeMaxMs {
				spike = s.Cfg.ICMPSpikeMaxMs
			}
			jitter += spike
		}
		responded := st.Bool(0.95)
		tr.Hops[i] = TraceHop{
			RouterID:  h.id,
			ASID:      int(h.asID),
			RTTMs:     2*cum[i] + jitter,
			Responded: responded,
		}
	}
	tr.DstRTTMs = 2*oneWay + st.Exp(s.Cfg.PingJitterMeanMs)
	tr.DstResponded = st.Bool(dst.RespScore)

	// Fault injection happens after the base trace is fully drawn, so the
	// surviving hops carry exactly the RTTs the fault-free simulator would
	// have produced.
	if f := s.Faults; f.Enabled() {
		seed := s.W.Cfg.Seed
		srcA, dstA := uint64(src.Addr), uint64(dst.Addr)
		if cut := f.TruncateHop(seed, srcA, dstA, salt, len(tr.Hops)); cut >= 0 {
			tr.Hops = tr.Hops[:cut]
			tr.DstRTTMs = 0
			tr.DstResponded = false
			tr.Truncated = true
			s.m.traceTruncated.Inc()
		}
		for i := range tr.Hops {
			if tr.Hops[i].Responded && f.HopLost(seed, srcA, dstA, salt, i) {
				tr.Hops[i].Responded = false
			}
		}
	}
	return tr
}

// LastCommonHop returns the index (in each trace) of the last router the
// two traceroutes share, requiring the hop to have responded in both. On
// real paths the common router need not sit at the same hop index in both
// traces, so the search matches routers by identity rather than position.
// ok is false when the traces share no responsive hop — the street-level
// delay for this vantage point is then unusable.
func LastCommonHop(a, b Trace) (ai, bi int, ok bool) {
	for j := len(b.Hops) - 1; j >= 0; j-- {
		if !b.Hops[j].Responded {
			continue
		}
		for i := len(a.Hops) - 1; i >= 0; i-- {
			if a.Hops[i].Responded && a.Hops[i].RouterID == b.Hops[j].RouterID {
				return i, j, true
			}
		}
	}
	return -1, -1, false
}
