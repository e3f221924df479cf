package router

import "testing"

// TestHealthDownAfterPassiveFailures pins the fast half of the state
// machine: DownAfter consecutive passive failures mark the replica down,
// and a success in between resets the streak.
func TestHealthDownAfterPassiveFailures(t *testing.T) {
	h := &replicaHealth{}
	h.recordOutcome(false, 3)
	h.recordOutcome(true, 3) // resets the streak
	h.recordOutcome(false, 3)
	h.recordOutcome(false, 3)
	if !h.Up() {
		t.Fatal("down after 2 consecutive failures with DownAfter=3")
	}
	h.recordOutcome(false, 3)
	if h.Up() {
		t.Fatal("still up after 3 consecutive failures with DownAfter=3")
	}
	_, _, downs, _ := h.snapshot()
	if downs != 1 {
		t.Fatalf("downs = %d, want 1", downs)
	}
}

// TestHealthProbeFailuresAlsoCount pins that active probes feed the same
// failure streak: an idle replica can go down without any traffic.
func TestHealthProbeFailuresAlsoCount(t *testing.T) {
	h := &replicaHealth{}
	h.recordProbe(false, 2, 3)
	h.recordProbe(false, 2, 3)
	if h.Up() {
		t.Fatal("still up after DownAfter probe failures")
	}
}

// TestHealthReadmissionNeedsConsecutiveProbes pins the slow half: only
// UpAfter CONSECUTIVE probe successes re-admit, a failed probe resets
// the streak, and passive successes (there are none while down — the
// router does not route there — but defend anyway) never re-admit.
func TestHealthReadmissionNeedsConsecutiveProbes(t *testing.T) {
	h := &replicaHealth{}
	h.recordProbe(false, 1, 3)
	if h.Up() {
		t.Fatal("not down after DownAfter=1 failure")
	}
	h.recordOutcome(true, 1) // passive success must not re-admit
	if h.Up() {
		t.Fatal("passive success re-admitted a down replica")
	}
	h.recordProbe(true, 1, 3)
	h.recordProbe(true, 1, 3)
	h.recordProbe(false, 1, 3) // flap: streak resets
	h.recordProbe(true, 1, 3)
	h.recordProbe(true, 1, 3)
	if h.Up() {
		t.Fatal("re-admitted without UpAfter consecutive probe successes")
	}
	h.recordProbe(true, 1, 3)
	if !h.Up() {
		t.Fatal("not re-admitted after UpAfter consecutive probe successes")
	}
	_, _, _, readmits := h.snapshot()
	if readmits != 1 {
		t.Fatalf("readmits = %d, want 1", readmits)
	}
}
