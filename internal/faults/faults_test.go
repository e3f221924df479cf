package faults

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestNoneInjectsNothing(t *testing.T) {
	for _, p := range []*Profile{nil, None(), {}} {
		if p.Enabled() {
			t.Fatalf("%+v should be disabled", p)
		}
		for salt := uint64(0); salt < 50; salt++ {
			if p.PacketLost(p.PathLossRate(1, 2, 3), 1, 2, 3, salt, 0) {
				t.Fatal("disabled profile lost a packet")
			}
			if p.HostDown(1, 2, float64(salt)*100) {
				t.Fatal("disabled profile downed a host")
			}
			if p.TruncateHop(1, 2, 3, salt, 12) != -1 {
				t.Fatal("disabled profile truncated a traceroute")
			}
			if p.HopLost(1, 2, 3, salt, 4) {
				t.Fatal("disabled profile silenced a hop")
			}
			if p.Submit(1, 2, 3, salt, 0) != SubmitOK {
				t.Fatal("disabled profile failed a submit")
			}
			if p.StallSec(1, 2, 3, salt, 0) != 0 {
				t.Fatal("disabled profile stalled")
			}
		}
	}
}

func TestPresetsEnabled(t *testing.T) {
	for _, p := range []*Profile{Realistic(), Degraded(), Hostile()} {
		if !p.Enabled() {
			t.Errorf("%s should be enabled", p.Name)
		}
	}
}

func TestDrawsDeterministic(t *testing.T) {
	p := Realistic()
	for salt := uint64(0); salt < 100; salt++ {
		if p.PacketLost(p.PathLossRate(7, 8, 9), 7, 8, 9, salt, 1) != p.PacketLost(p.PathLossRate(7, 8, 9), 7, 8, 9, salt, 1) {
			t.Fatal("PacketLost not deterministic")
		}
		if p.TruncateHop(7, 8, 9, salt, 10) != p.TruncateHop(7, 8, 9, salt, 10) {
			t.Fatal("TruncateHop not deterministic")
		}
		if p.Submit(7, 8, 9, salt, 2) != p.Submit(7, 8, 9, salt, 2) {
			t.Fatal("Submit not deterministic")
		}
	}
}

func TestPacketLossRateApproximatesProfile(t *testing.T) {
	p := &Profile{PacketLoss: 0.2}
	lost, n := 0, 20000
	for i := 0; i < n; i++ {
		if p.PacketLost(p.PathLossRate(1, uint64(i), 3), 1, uint64(i), 3, 4, 0) {
			lost++
		}
	}
	got := float64(lost) / float64(n)
	if math.Abs(got-0.2) > 0.02 {
		t.Errorf("observed loss %.3f, want ~0.20", got)
	}
}

func TestPathLossHeterogeneity(t *testing.T) {
	p := &Profile{PathLossMax: 0.5}
	lo, hi := math.Inf(1), math.Inf(-1)
	for src := uint64(0); src < 500; src++ {
		r := p.PathLossRate(1, src, 9)
		if r < 0 || r > 0.5 {
			t.Fatalf("path loss %.3f outside [0, 0.5]", r)
		}
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	if hi-lo < 0.3 {
		t.Errorf("path loss rates should spread across [0, 0.5]; got [%.3f, %.3f]", lo, hi)
	}
}

func TestHostDownWindows(t *testing.T) {
	p := &Profile{FlapFrac: 1, FlapPeriodSec: 100, FlapDownFrac: 0.3}
	// With every host flapping 30% of the time, sampling one host across
	// many times should see both states, roughly 30% down.
	down, n := 0, 10000
	for i := 0; i < n; i++ {
		if p.HostDown(1, 42, float64(i)) {
			down++
		}
	}
	frac := float64(down) / float64(n)
	if frac < 0.2 || frac > 0.4 {
		t.Errorf("down fraction %.3f, want ~0.30", frac)
	}
	// A host is down in contiguous windows, not random flips: consecutive
	// seconds should mostly agree.
	flips := 0
	prev := p.HostDown(1, 42, 0)
	for s := 1; s < 1000; s++ {
		cur := p.HostDown(1, 42, float64(s))
		if cur != prev {
			flips++
		}
		prev = cur
	}
	if flips > 40 {
		t.Errorf("%d state flips over 1000s; flap windows should be contiguous", flips)
	}
}

func TestTruncateHopInRange(t *testing.T) {
	p := &Profile{TraceTruncProb: 1}
	for salt := uint64(0); salt < 200; salt++ {
		h := p.TruncateHop(1, 2, 3, salt, 15)
		if h < 0 || h >= 15 {
			t.Fatalf("truncation hop %d outside [0, 15)", h)
		}
	}
	if p.TruncateHop(1, 2, 3, 0, 0) != -1 {
		t.Error("zero-hop trace cannot truncate")
	}
}

func TestSubmitOutcomeSplit(t *testing.T) {
	p := &Profile{SubmitErrProb: 0.3, RateLimitProb: 0.3}
	var errs, limited, ok int
	n := 20000
	for i := 0; i < n; i++ {
		switch p.Submit(1, uint64(i), 3, 4, 0) {
		case SubmitError:
			errs++
		case SubmitRateLimited:
			limited++
		default:
			ok++
		}
	}
	for name, got := range map[string]int{"errors": errs, "rate-limited": limited} {
		frac := float64(got) / float64(n)
		if frac < 0.27 || frac > 0.33 {
			t.Errorf("%s fraction %.3f, want ~0.30", name, frac)
		}
	}
}

func TestStallSecBounded(t *testing.T) {
	p := &Profile{StallProb: 0.5, StallMaxSec: 200}
	stalled := 0
	for salt := uint64(0); salt < 2000; salt++ {
		s := p.StallSec(1, 2, 3, salt, 0)
		if s < 0 || s >= 200 {
			t.Fatalf("stall %.1fs outside [0, 200)", s)
		}
		if s > 0 {
			stalled++
		}
	}
	if frac := float64(stalled) / 2000; frac < 0.4 || frac > 0.6 {
		t.Errorf("stall fraction %.3f, want ~0.50", frac)
	}
}

func TestScale(t *testing.T) {
	p := Realistic()
	if Realistic().Scale(0).Enabled() {
		t.Error("Scale(0) should disable the profile")
	}
	up := p.Scale(3)
	if up.PacketLoss != 3*p.PacketLoss {
		t.Errorf("scaled loss = %v", up.PacketLoss)
	}
	if h := Hostile().Scale(10); h.TraceTruncProb > 1 || h.FlapFrac > 1 {
		t.Error("scaled probabilities must cap at 1")
	}
}

// TestParseProfile: "none" is no fault layer at all (nil), each preset
// name yields its preset, and anything else is an error naming the value.
func TestParseProfile(t *testing.T) {
	for _, tc := range []struct {
		name string
		want *Profile
		ok   bool
	}{
		{"none", nil, true},
		{"realistic", Realistic(), true},
		{"degraded", Degraded(), true},
		{"hostile", Hostile(), true},
		{"bogus", nil, false},
		{"Hostile", nil, false},
		{"", nil, false},
	} {
		got, err := ParseProfile(tc.name)
		switch {
		case tc.ok && err != nil:
			t.Errorf("ParseProfile(%q): %v", tc.name, err)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown fault profile %q", tc.name))):
			t.Errorf("ParseProfile(%q) err = %v, want unknown fault profile", tc.name, err)
		case !reflect.DeepEqual(got, tc.want):
			t.Errorf("ParseProfile(%q) = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
