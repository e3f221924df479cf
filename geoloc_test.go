package geoloc

import (
	"strings"
	"testing"

	"geoloc/internal/experiments"
	"geoloc/internal/world"
)

// sys is a shared tiny-scale system for the facade tests.
var sys = NewSystemFromConfig(world.TinyConfig(), experiments.QuickOptions(), nil)

func TestScaleConfigs(t *testing.T) {
	if TinyScale.Config().Probes >= PaperScale.Config().Probes {
		t.Error("tiny scale should be smaller than paper scale")
	}
	for _, s := range []Scale{TinyScale, MediumScale, PaperScale} {
		if s.String() == "" {
			t.Error("scale string empty")
		}
	}
}

func TestTargets(t *testing.T) {
	targets := sys.Targets()
	if len(targets) != sys.NumTargets() {
		t.Fatalf("targets = %d, NumTargets = %d", len(targets), sys.NumTargets())
	}
	for i, tgt := range targets {
		if tgt.Index != i {
			t.Fatalf("target %d has index %d", i, tgt.Index)
		}
		if tgt.Addr == "" || tgt.City == "" || tgt.Continent == "" {
			t.Fatalf("target %d missing metadata: %+v", i, tgt)
		}
	}
}

func TestLocateCBG(t *testing.T) {
	located := 0
	for i := 0; i < sys.NumTargets(); i++ {
		est, err := sys.LocateCBG(i)
		if err != nil {
			continue
		}
		located++
		if est.Technique != "cbg" || est.Target != i {
			t.Fatalf("bad estimate metadata: %+v", est)
		}
		if est.ErrorKm < 0 {
			t.Fatal("negative error")
		}
	}
	if located < sys.NumTargets()/2 {
		t.Errorf("CBG located only %d/%d targets", located, sys.NumTargets())
	}
}

func TestLocateShortestPing(t *testing.T) {
	est, err := sys.LocateShortestPing(0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Technique != "shortest-ping" {
		t.Errorf("technique = %q", est.Technique)
	}
}

func TestLocateWithSelectedVP(t *testing.T) {
	est1, err := sys.LocateWithSelectedVP(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	est10, err := sys.LocateWithSelectedVP(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if est1.Technique != "vpsel-1" || est10.Technique != "vpsel-10" {
		t.Error("technique labels wrong")
	}
}

func TestLocateStreetLevel(t *testing.T) {
	res, err := sys.LocateStreetLevel(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "landmark" && res.Method != "cbg" {
		t.Errorf("method = %q", res.Method)
	}
	if res.SimulatedSeconds <= 0 {
		t.Error("simulated time should be positive")
	}
	if res.Estimate.Technique != "street-level" {
		t.Errorf("technique = %q", res.Estimate.Technique)
	}
}

func TestTargetRangeChecks(t *testing.T) {
	if _, err := sys.LocateCBG(-1); err == nil {
		t.Error("negative target should error")
	}
	if _, err := sys.LocateCBG(sys.NumTargets()); err == nil {
		t.Error("out-of-range target should error")
	}
	if _, err := sys.LocateStreetLevel(10 * sys.NumTargets()); err == nil {
		t.Error("out-of-range street level should error")
	}
}

func TestReportLookup(t *testing.T) {
	r, err := sys.Report("table1")
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "table1" {
		t.Errorf("got report %q", r.ID)
	}
	if _, err := sys.Report("nope"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestExperimentIDsSortedAndComplete(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 22 {
		t.Fatalf("have %d experiment IDs", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("IDs not sorted")
		}
	}
	// Every listed ID must resolve.
	for _, id := range ids {
		if _, err := sys.Report(id); err != nil {
			t.Errorf("experiment %q unavailable: %v", id, err)
		}
	}
}

func TestAllReportsRender(t *testing.T) {
	for _, r := range sys.AllReports() {
		out := r.Render()
		if !strings.HasPrefix(out, "== ") {
			t.Errorf("report %q renders oddly", r.ID)
		}
	}
}

func TestCBGBeatsShortestPingOnAverage(t *testing.T) {
	var cbgSum, spSum float64
	n := 0
	for i := 0; i < sys.NumTargets(); i++ {
		cbg, err1 := sys.LocateCBG(i)
		sp, err2 := sys.LocateShortestPing(i)
		if err1 != nil || err2 != nil {
			continue
		}
		cbgSum += cbg.ErrorKm
		spSum += sp.ErrorKm
		n++
	}
	if n == 0 {
		t.Fatal("no comparable targets")
	}
	// CBG and shortest ping are comparable techniques; CBG should not be
	// wildly worse (the paper treats them as near-equivalent, §5.1).
	if cbgSum > 3*spSum {
		t.Errorf("CBG mean error %.1f vs shortest ping %.1f — too far apart", cbgSum/float64(n), spSum/float64(n))
	}
}
