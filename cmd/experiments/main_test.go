package main

import (
	"strings"
	"testing"
)

// TestCheckFlags: the flag values that cannot run are refused before any
// work starts, naming the flag, and the ones that can are let through.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scale   string
		faults  string
		window  int
		ckptDir string
		resume  bool
		counts  []count
		bad     string // the flag the error names; "" = accepted
	}{
		{"stream window 0", "1000", "none", 0, "", false, nil, "-window"},
		{"stream window negative", "1000", "none", -1, "", false, nil, "-window"},
		{"stream default window", "1000", "none", 4096, "", false, nil, ""},
		{"stream resume beside artifact", "1000", "none", 4096, "", true, nil, ""},
		{"named resume without journal", "tiny", "none", 4096, "", true, nil, "-resume"},
		{"named resume with journal", "tiny", "none", 4096, "ck", true, nil, ""},
		{"named fresh run", "tiny", "none", 4096, "", false, nil, ""},
		{"zero counts", "tiny", "none", 4096, "", false,
			[]count{{"trials", 0}, {"kill-after-batches", 0}, {"progress", 0}}, ""},
		{"positive counts", "2000", "none", 4096, "", false,
			[]count{{"block-size", 64}, {"trials", 100}, {"kill-after-batches", 40}, {"progress", 3}}, ""},
		{"negative trials", "tiny", "none", 4096, "", false, []count{{"trials", -1}}, "-trials"},
		{"negative block size", "2000", "none", 4096, "", false, []count{{"block-size", -5}}, "-block-size"},
		{"negative progress", "tiny", "none", 4096, "", false, []count{{"trials", 1}, {"progress", -3}}, "-progress"},
		{"negative kill point", "tiny", "none", 4096, "ck", false,
			[]count{{"kill-after-batches", -2}}, "-kill-after-batches"},
		{"unknown scale", "galactic", "none", 4096, "", false, nil, "-scale"},
		{"unknown scale with journal", "galactic", "none", 4096, "ck", true, nil, "-scale"},
		{"stream count past the /24 space", "1e9", "none", 4096, "", false, nil, "-scale"},
		{"hostile fault profile", "tiny", "hostile", 4096, "", false, nil, ""},
		{"unknown fault profile", "tiny", "bogus", 4096, "", false, nil, "-faults"},
		{"unknown fault profile, stream scale", "2000", "bogus", 4096, "", false, nil, "-faults"},
	} {
		err := checkFlags(tc.scale, tc.faults, tc.window, tc.ckptDir, tc.resume, tc.counts...)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%s: checkFlags refused: %v", tc.name, err)
		case tc.bad != "" && err == nil:
			t.Errorf("%s: checkFlags accepted, want %s refused", tc.name, tc.bad)
		case tc.bad != "" && !strings.HasPrefix(err.Error(), tc.bad+" "):
			t.Errorf("%s: checkFlags = %q, want it to name %s", tc.name, err, tc.bad)
		}
	}
}
