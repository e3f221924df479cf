// Per-replica health: the state machine that decides which replicas
// receive traffic.
//
// Two signals feed it. Passive scoring comes for free with every proxied
// request — a transport error or 5xx is a failure, anything else a
// success. Active probing hits /readyz on a fixed interval so a replica
// with no traffic still changes state.
//
// Transitions are deliberately asymmetric: DownAfter consecutive
// failures (from either signal) mark the replica down — fast, because
// every failed attempt cost a client latency — but only UpAfter
// consecutive *probe* successes re-admit it, so a flapping replica must
// prove a sustained recovery before it gets traffic again. While down, a
// replica receives probes and nothing else.
package router

import (
	"sync"
)

// replicaHealth tracks one replica's admission state. All mutable state
// is behind one mutex — health events are rare relative to requests, and
// the hot-path read (Up) is a single lock/load/unlock.
type replicaHealth struct {
	mu sync.Mutex

	down        bool
	consecFails int // consecutive failures, passive + probe
	probeOKs    int // consecutive probe successes while down

	// Event counts surfaced through the router's metrics refresh.
	downs, readmits uint64
}

// Up reports whether the replica is admitted for traffic.
func (h *replicaHealth) Up() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.down
}

// recordOutcome folds one passive (proxied-request) outcome into the
// state machine.
func (h *replicaHealth) recordOutcome(ok bool, downAfter int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !ok {
		h.fail(downAfter)
		return
	}
	if !h.down {
		h.consecFails = 0
	}
}

// recordProbe folds one active /readyz probe outcome into the state
// machine. Probes are the only signal that can re-admit a down replica.
func (h *replicaHealth) recordProbe(ok bool, downAfter, upAfter int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !ok {
		h.probeOKs = 0
		h.fail(downAfter)
		return
	}
	if !h.down {
		h.consecFails = 0
		return
	}
	h.probeOKs++
	if h.probeOKs >= upAfter {
		h.down = false
		h.consecFails = 0
		h.probeOKs = 0
		h.readmits++
	}
}

// fail records one failure; callers hold mu.
func (h *replicaHealth) fail(downAfter int) {
	h.consecFails++
	h.probeOKs = 0
	if !h.down && h.consecFails >= downAfter {
		h.down = true
		h.downs++
	}
}

// snapshot returns the gauge view: state, failure streak, event counts.
func (h *replicaHealth) snapshot() (up bool, consecFails int, downs, readmits uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.down, h.consecFails, h.downs, h.readmits
}
