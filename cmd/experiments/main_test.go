package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geoloc/internal/checkpoint"
	"geoloc/internal/experiments"
)

// TestCheckFlags: the flag values that cannot run are refused before any
// work starts, naming the flag, and the ones that can are let through.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scale   string
		faults  string
		ckptDir string
		resume  bool
		counts  []count
		bad     string // the flag the error names; "" = accepted
	}{
		{"stream fresh run", "1000", "none", "", false, nil, ""},
		{"stream resume beside artifact", "1000", "none", "", true, nil, ""},
		{"named resume without journal", "tiny", "none", "", true, nil, "-resume"},
		{"named resume with journal", "tiny", "none", "ck", true, nil, ""},
		{"named fresh run", "tiny", "none", "", false, nil, ""},
		{"zero counts", "tiny", "none", "", false,
			[]count{{"trials", 0}, {"kill-after-batches", 0}, {"progress", 0}}, ""},
		{"positive counts", "2000", "none", "", false,
			[]count{{"trials", 100}, {"kill-after-batches", 40}, {"progress", 3}}, ""},
		{"negative trials", "tiny", "none", "", false, []count{{"trials", -1}}, "-trials"},
		{"negative progress", "tiny", "none", "", false, []count{{"trials", 1}, {"progress", -3}}, "-progress"},
		{"negative kill point", "tiny", "none", "ck", false,
			[]count{{"kill-after-batches", -2}}, "-kill-after-batches"},
		{"unknown scale", "galactic", "none", "", false, nil, "-scale"},
		{"unknown scale with journal", "galactic", "none", "ck", true, nil, "-scale"},
		{"stream count past the /24 space", "1e9", "none", "", false, nil, "-scale"},
		{"hostile fault profile", "tiny", "hostile", "", false, nil, ""},
		{"unknown fault profile", "tiny", "bogus", "", false, nil, "-faults"},
		{"unknown fault profile, stream scale", "2000", "bogus", "", false, nil, "-faults"},
	} {
		err := checkFlags(tc.scale, tc.faults, tc.ckptDir, tc.resume, tc.counts...)
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

// testReport has cells the CSV must quote and a note only the text shows.
var testReport = &experiments.Report{
	ID: "fig9", Title: "quoting", PaperRef: "none",
	Header: []string{"method", "share, %"},
	Rows:   [][]string{{`say "cbg"`, "3.5"}, {"street\nlevel", "96.5"}},
	Notes:  []string{"a note"},
}

// TestReplayedReportWritesLiveBytes: a report replayed from its journal
// record writes the same <id>.txt and <id>.csv bytes as the live one.
func TestReplayedReportWritesLiveBytes(t *testing.T) {
	live, replayed := t.TempDir(), t.TempDir()
	rr := render(testReport)
	if err := rr.write(live, testReport.ID); err != nil {
		t.Fatal(err)
	}
	id, back, err := decodeReport(encodeReport(testReport.ID, rr))
	if err != nil {
		t.Fatal(err)
	}
	if id != testReport.ID {
		t.Fatalf("replayed id %q, want %q", id, testReport.ID)
	}
	if err := back.write(replayed, id); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".txt", ".csv"} {
		want, err := os.ReadFile(filepath.Join(live, testReport.ID+ext))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(replayed, testReport.ID+ext))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Errorf("%s: replayed %q, live %q", ext, got, want)
		}
	}
}

// TestReportRecordWithoutCSVIsCorrupt: a report record in the layout
// written before reports carried their CSV (id, then the text) fails as
// corrupt, as does every truncation of a current record.
func TestReportRecordWithoutCSVIsCorrupt(t *testing.T) {
	text := testReport.Render()
	old := binary.LittleEndian.AppendUint16(nil, uint16(len(testReport.ID)))
	old = append(append(old, testReport.ID...), text...)
	if _, _, err := decodeReport(old); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("record without CSV: err = %v, want ErrCorrupt", err)
	}
	rec := encodeReport(testReport.ID, render(testReport))
	for n := 0; n < 2+len(testReport.ID)+4+len(text); n++ {
		if _, _, err := decodeReport(rec[:n]); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("record cut to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}
