package main

import "testing"

// TestCheckFlags: the flag values that cannot run are refused before any
// work starts, and the ones that can are let through.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scale   string
		window  int
		ckptDir string
		resume  bool
		ok      bool
	}{
		{"stream window 0", "1000", 0, "", false, false},
		{"stream window negative", "1000", -1, "", false, false},
		{"stream default window", "1000", 4096, "", false, true},
		{"stream resume beside artifact", "1000", 4096, "", true, true},
		{"named resume without journal", "tiny", 4096, "", true, false},
		{"named resume with journal", "tiny", 4096, "ck", true, true},
		{"named fresh run", "tiny", 4096, "", false, true},
	} {
		err := checkFlags(tc.scale, tc.window, tc.ckptDir, tc.resume)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(%q, %d, %q, %v) = %v, want ok=%v",
				tc.name, tc.scale, tc.window, tc.ckptDir, tc.resume, err, tc.ok)
		}
	}
}
