package core

import (
	"runtime"
	"testing"

	"geoloc/internal/faults"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

// matricesEqual compares two campaigns' RTT matrices bit-for-bit
// (including NaN cells, compared via bit pattern by comparing both
// directions of !=).
func matricesEqual(t *testing.T, name string, a, b [][]float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: row count %d != %d", name, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: row %d length %d != %d", name, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x != y && !(x != x && y != y) { // differ and not both NaN
				t.Fatalf("%s[%d][%d]: %v != %v", name, i, j, x, y)
			}
		}
	}
}

// TestResilientCampaignDeterministic is the parallelism-safety regression
// gate: two same-seed campaigns under the realistic fault profile must
// produce byte-identical matrices and identical platform and client
// counters even though the matrix builds run on every CPU and the
// goroutine schedule differs between runs.
func TestResilientCampaignDeterministic(t *testing.T) {
	// Force multiple matrix-build workers even on single-CPU machines so
	// the goroutine interleaving actually varies between the two runs.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	build := func() *Campaign {
		c := NewResilientCampaign(world.TinyConfig(), faults.Realistic())
		c.BuildMatrices()
		return c
	}
	a, b := build(), build()

	matricesEqual(t, "TargetRTT", a.TargetRTT.RTT, b.TargetRTT.RTT)
	matricesEqual(t, "RepRTT", a.RepRTT.RTT, b.RepRTT.RTT)

	if sa, sb := a.Platform.Stats(), b.Platform.Stats(); sa != sb {
		t.Errorf("platform stats differ:\n%+v\n%+v", sa, sb)
	}
	if sa, sb := a.Client.Stats(), b.Client.Stats(); sa != sb {
		t.Errorf("client stats differ:\n%+v\n%+v", sa, sb)
	}
}

// TestNoneProfileCampaignBitIdentical pins the zero-cost guarantee: a
// resilient campaign under the disabled profile must reproduce the plain
// campaign's matrices bit-for-bit — the client and fault layer are
// transparent when no fault is configured.
func TestNoneProfileCampaignBitIdentical(t *testing.T) {
	plain := NewCampaign(world.TinyConfig())
	plain.BuildMatrices()
	resilient := NewResilientCampaign(world.TinyConfig(), faults.None())
	resilient.BuildMatrices()

	if len(plain.Targets) != len(resilient.Targets) || len(plain.VPs) != len(resilient.VPs) {
		t.Fatalf("sanitization diverged: %d/%d targets, %d/%d VPs",
			len(plain.Targets), len(resilient.Targets), len(plain.VPs), len(resilient.VPs))
	}
	matricesEqual(t, "TargetRTT", plain.TargetRTT.RTT, resilient.TargetRTT.RTT)
	matricesEqual(t, "RepRTT", plain.RepRTT.RTT, resilient.RepRTT.RTT)

	// The client must not have retried anything.
	cs := resilient.Client.Stats()
	if cs.Retries != 0 || cs.Quarantines != 0 || cs.SubmitErrors != 0 {
		t.Errorf("disabled profile engaged the fault machinery: %+v", cs)
	}
}

// TestTelemetryEnabledDoesNotPerturbResults pins the observability rule of
// DESIGN.md §3.2: enabling the global telemetry registry (what -metrics /
// -trace do) must not change a single matrix cell or platform counter —
// telemetry is derived from results, never an input to them.
func TestTelemetryEnabledDoesNotPerturbResults(t *testing.T) {
	std := telemetry.Default()
	if std.IsEnabled() {
		t.Fatal("global registry unexpectedly enabled at test start")
	}
	build := func() *Campaign {
		c := NewCampaign(world.TinyConfig())
		c.BuildMatrices()
		return c
	}
	off := build()

	std.SetEnabled(true)
	t.Cleanup(func() {
		std.SetEnabled(false)
		std.Reset()
	})
	on := build()

	matricesEqual(t, "TargetRTT", off.TargetRTT.RTT, on.TargetRTT.RTT)
	matricesEqual(t, "RepRTT", off.RepRTT.RTT, on.RepRTT.RTT)
	if sa, sb := off.Platform.Stats(), on.Platform.Stats(); sa != sb {
		t.Errorf("platform stats differ with telemetry enabled:\n%+v\n%+v", sa, sb)
	}
	// The enabled run must actually have metered the pipeline.
	if v := std.Counter("netsim.pings").Value(); v == 0 {
		t.Error("enabled run recorded no netsim.pings")
	}
}
