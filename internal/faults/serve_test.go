package faults

import (
	"math"
	"testing"
)

// TestServeFailedDeterministic pins the rhash-keyed failure draw: the same
// (seed, addr) always fails or always succeeds, so a retry cannot get
// lucky, the empirical failure rate tracks the configured probability, and
// another seed redraws the failing set.
func TestServeFailedDeterministic(t *testing.T) {
	p := &Profile{ServeFailProb: 0.25}
	failed := 0
	for addr := uint64(0); addr < 4096; addr++ {
		a := p.ServeFailed(7, addr)
		if a != p.ServeFailed(7, addr) {
			t.Fatalf("ServeFailed(7, %d) not deterministic", addr)
		}
		if a {
			failed++
		}
	}
	rate := float64(failed) / 4096
	if math.Abs(rate-0.25) > 0.05 {
		t.Errorf("failure rate %.3f, want ~0.25", rate)
	}
	diff := 0
	for addr := uint64(0); addr < 64; addr++ {
		if p.ServeFailed(7, addr) != p.ServeFailed(8, addr) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seed 7 and 8 drew identical failure sets across 64 addresses")
	}
}

// TestServeStallBounded pins the stall draw: magnitudes stay within
// [0, max), the stall rate tracks the probability, and draws are
// per-address deterministic.
func TestServeStallBounded(t *testing.T) {
	p := &Profile{ServeStallProb: 0.2, ServeStallMaxMs: 500}
	stalled := 0
	for addr := uint64(0); addr < 2000; addr++ {
		ms := p.ServeStallMs(9, addr)
		if ms != p.ServeStallMs(9, addr) {
			t.Fatalf("ServeStallMs not deterministic at addr %d", addr)
		}
		if ms < 0 || ms >= 500 {
			t.Fatalf("stall %f ms outside [0, 500)", ms)
		}
		if ms > 0 {
			stalled++
		}
	}
	rate := float64(stalled) / 2000
	if math.Abs(rate-0.2) > 0.05 {
		t.Errorf("stall rate %.3f, want ~0.2", rate)
	}
}

// TestReplicaKnobsDisabled pins the zero-cost contract of the faults a
// serving replica injects: nil and zero profiles inject nothing, and
// Scale(0) turns the knobs off.
func TestReplicaKnobsDisabled(t *testing.T) {
	var nilP *Profile
	if nilP.ServeFailed(1, 0) || nilP.ServeStallMs(1, 0) != 0 {
		t.Error("nil profile injected a serving fault")
	}
	zero := &Profile{}
	if zero.ServeFailed(1, 0) || zero.ServeStallMs(1, 0) != 0 {
		t.Error("zero profile injected a serving fault")
	}
	off := Hostile().Scale(0)
	if off.ServeFailProb != 0 || off.ServeStallProb != 0 || off.ServeStallMaxMs != 0 {
		t.Errorf("Scale(0) left serving knobs on: %+v", off)
	}
	if !Hostile().Enabled() {
		t.Error("hostile profile reports disabled")
	}
	if !(&Profile{ServeStallProb: 0.1}).Enabled() {
		t.Error("a profile with only serving knobs must report enabled")
	}
}
