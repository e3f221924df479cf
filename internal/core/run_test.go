package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"geoloc/internal/checkpoint"
	"geoloc/internal/faults"
	"geoloc/internal/world"
)

// tinyCampaign builds a fresh campaign under the named profile ("" = raw
// platform, no client).
func tinyCampaign(profile string) *Campaign {
	cfg := world.TinyConfig()
	switch profile {
	case "":
		return NewCampaign(cfg)
	case "none":
		return NewResilientCampaign(cfg, faults.None())
	case "realistic":
		return NewResilientCampaign(cfg, faults.Realistic())
	}
	panic("unknown profile " + profile)
}

// digests returns the two matrix digests of a completed campaign.
func digests(c *Campaign) (t, r [32]byte) {
	return MatrixDigest(c.TargetRTT), MatrixDigest(c.RepRTT)
}

// TestRunMatchesBuildMatrices: Run with no journal must be bit-identical
// to the original BuildMatrices path, for the raw platform and for
// resilient campaigns with and without faults.
func TestRunMatchesBuildMatrices(t *testing.T) {
	for _, profile := range []string{"", "none", "realistic"} {
		ref := tinyCampaign(profile)
		ref.BuildMatrices()

		c := tinyCampaign(profile)
		res, err := c.Run(context.Background(), RunConfig{})
		if err != nil {
			t.Fatalf("%q: Run: %v", profile, err)
		}
		if res.Interrupted || res.Resumed || res.RestoredRows != 0 {
			t.Fatalf("%q: unexpected result %+v", profile, res)
		}
		rt, rr := digests(ref)
		ct, cr := digests(c)
		if rt != ct || rr != cr {
			t.Fatalf("%q: Run digests differ from BuildMatrices", profile)
		}
		if ref.Platform.Stats() != c.Platform.Stats() {
			t.Fatalf("%q: platform stats differ: %+v vs %+v", profile, ref.Platform.Stats(), c.Platform.Stats())
		}
		if profile != "" && ref.Client.Stats() != c.Client.Stats() {
			t.Fatalf("%q: client stats differ:\n%+v\n%+v", profile, ref.Client.Stats(), c.Client.Stats())
		}
	}
}

// killAndResume runs a journaled campaign, soft-cancels after kill rows
// have been journaled, then resumes in a fresh campaign and returns it.
func killAndResume(t *testing.T, profile, journal string, kill int) (*Campaign, *RunResult) {
	t.Helper()
	soft, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	c1 := tinyCampaign(profile)
	res1, err := c1.Run(soft, RunConfig{
		JournalPath: journal,
		OnRowJournaled: func(string, int) {
			n++
			if n >= kill {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("killed run: %v", err)
	}
	if !res1.Interrupted {
		t.Fatalf("run with kill after %d rows was not interrupted", kill)
	}
	if err := res1.Journal.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := tinyCampaign(profile)
	res2, err := c2.Run(context.Background(), RunConfig{JournalPath: journal, Resume: true})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !res2.Resumed || res2.RestoredRows == 0 {
		t.Fatalf("resume restored nothing: %+v", res2)
	}
	if res2.Interrupted {
		t.Fatal("resumed run interrupted")
	}
	if err := res2.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	return c2, res2
}

// TestKillResumeBitIdentical is the tentpole acceptance test: a campaign
// killed after k journaled batches and resumed in a fresh process must
// produce byte-identical matrices AND identical platform/client stats to
// an uninterrupted run — under the none and realistic profiles alike.
func TestKillResumeBitIdentical(t *testing.T) {
	for _, profile := range []string{"none", "realistic"} {
		ref := tinyCampaign(profile)
		ref.BuildMatrices()
		refT, refR := digests(ref)

		for _, kill := range []int{1, 7, 150} {
			journal := filepath.Join(t.TempDir(), "c.ckpt")
			c2, res2 := killAndResume(t, profile, journal, kill)
			gotT, gotR := digests(c2)
			if gotT != refT || gotR != refR {
				t.Fatalf("%s/kill=%d: resumed digests differ from uninterrupted run", profile, kill)
			}
			if ref.Platform.Stats() != c2.Platform.Stats() {
				t.Fatalf("%s/kill=%d: platform stats differ:\n%+v\n%+v",
					profile, kill, ref.Platform.Stats(), c2.Platform.Stats())
			}
			if ref.Client.Stats() != c2.Client.Stats() {
				t.Fatalf("%s/kill=%d: client stats differ:\n%+v\n%+v",
					profile, kill, ref.Client.Stats(), c2.Client.Stats())
			}
			if res2.RestoredRows+res2.MeasuredRows != 2*len(c2.VPs) {
				t.Fatalf("%s/kill=%d: restored %d + measured %d != %d rows",
					profile, kill, res2.RestoredRows, res2.MeasuredRows, 2*len(c2.VPs))
			}
		}
	}
}

// TestHardCancelRowsNeverJournaled: rows abandoned by the hard context are
// not journaled, and the resumed run re-measures them to the same result.
func TestHardCancelRowsNeverJournaled(t *testing.T) {
	ref := tinyCampaign("realistic")
	ref.BuildMatrices()
	refT, refR := digests(ref)

	journal := filepath.Join(t.TempDir(), "c.ckpt")
	soft, softCancel := context.WithCancel(context.Background())
	hard, hardCancel := context.WithCancel(context.Background())
	defer softCancel()
	n := 0
	c1 := tinyCampaign("realistic")
	res1, err := c1.Run(soft, RunConfig{
		JournalPath: journal,
		Hard:        hard,
		OnRowJournaled: func(string, int) {
			n++
			if n == 5 {
				softCancel()
				hardCancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("hard-canceled run: %v", err)
	}
	if !res1.Interrupted {
		t.Fatal("hard-canceled run not marked interrupted")
	}
	res1.Journal.Close()

	// Every journaled row must decode as a complete, well-formed batch.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	_, recs, _, _, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatalf("journal after hard cancel: %v", err)
	}
	for _, r := range recs {
		if r.Kind != checkpoint.KindRow {
			t.Fatalf("unexpected record kind %d in interrupted journal", r.Kind)
		}
	}

	c2 := tinyCampaign("realistic")
	res2, err := c2.Run(context.Background(), RunConfig{JournalPath: journal, Resume: true})
	if err != nil {
		t.Fatalf("resume after hard cancel: %v", err)
	}
	res2.Journal.Close()
	gotT, gotR := digests(c2)
	if gotT != refT || gotR != refR {
		t.Fatal("resume after hard cancel diverged from uninterrupted run")
	}
	if ref.Client.Stats() != c2.Client.Stats() {
		t.Fatalf("client stats differ after hard-cancel resume:\n%+v\n%+v", ref.Client.Stats(), c2.Client.Stats())
	}
}

// TestResumeRejectsMismatchedCampaign: a journal must never be replayed
// into a campaign with a different seed or fault profile.
func TestResumeRejectsMismatchedCampaign(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "c.ckpt")
	killAndResume(t, "realistic", journal, 3) // leaves a valid realistic journal

	// Different profile.
	other := tinyCampaign("none")
	if _, err := other.Run(context.Background(), RunConfig{JournalPath: journal, Resume: true}); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("profile mismatch: err %v, want ErrMismatch", err)
	}
	// Different seed.
	cfg := world.TinyConfig()
	cfg.Seed++
	seeded := NewResilientCampaign(cfg, faults.Realistic())
	if _, err := seeded.Run(context.Background(), RunConfig{JournalPath: journal, Resume: true}); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("seed mismatch: err %v, want ErrMismatch", err)
	}
}

// TestResumeRejectsCorruptJournal: damage at rest is an error, not a
// silent partial resume.
func TestResumeRejectsCorruptJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "c.ckpt")
	killAndResume(t, "none", journal, 10)
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xFF // mid-file, far from the final frame
	if err := os.WriteFile(journal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c := tinyCampaign("none")
	_, err = c.Run(context.Background(), RunConfig{JournalPath: journal, Resume: true})
	if err == nil {
		t.Fatal("corrupt journal resumed without error")
	}
	if !errors.Is(err, checkpoint.ErrCorrupt) && !errors.Is(err, checkpoint.ErrNoHeader) &&
		!errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("corrupt journal: unnamed error %v", err)
	}
}

// TestPhaseDigestSealing: a completed phase's digest is journaled, and a
// resume that cannot reproduce it fails with ErrMismatch instead of
// continuing from wrong data.
func TestPhaseDigestSealing(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "c.ckpt")
	c := tinyCampaign("none")
	res, err := c.Run(context.Background(), RunConfig{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	res.Journal.Close()

	// A full journal replays cleanly: everything restores, nothing measures.
	c2 := tinyCampaign("none")
	res2, err := c2.Run(context.Background(), RunConfig{JournalPath: journal, Resume: true})
	if err != nil {
		t.Fatalf("replaying a sealed journal: %v", err)
	}
	res2.Journal.Close()
	if res2.MeasuredRows != 0 || res2.RestoredRows != 2*len(c2.VPs) {
		t.Fatalf("sealed journal replay: %+v", res2)
	}
	if MatrixDigest(c2.TargetRTT) != MatrixDigest(c.TargetRTT) {
		t.Fatal("sealed replay diverged")
	}
}

// TestSoftCancelBeforeStart: a context canceled before Run dispatches
// anything yields zero rows, an interrupted result, and no error.
func TestSoftCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := tinyCampaign("none")
	res, err := c.Run(ctx, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.MeasuredRows != 0 {
		t.Fatalf("pre-canceled run: %+v", res)
	}
}

// TestConfigHashSensitivity: the journal-identity hash must move when the
// world, profile, or client tuning moves, and hold still otherwise.
func TestConfigHashSensitivity(t *testing.T) {
	base := tinyCampaign("realistic").ConfigHash()
	if tinyCampaign("realistic").ConfigHash() != base {
		t.Fatal("ConfigHash not deterministic")
	}
	if tinyCampaign("none").ConfigHash() == base {
		t.Fatal("ConfigHash ignores the fault profile")
	}
	cfg := world.TinyConfig()
	cfg.Seed++
	if NewResilientCampaign(cfg, faults.Realistic()).ConfigHash() == base {
		t.Fatal("ConfigHash ignores the seed")
	}
	tuned := tinyCampaign("realistic")
	tuned.Client.Cfg.MaxAttempts++
	if tuned.ConfigHash() == base {
		t.Fatal("ConfigHash ignores client tuning")
	}
}

// TestRunProgressRecords: the -progress hook reports every completed row
// (cadence 1) with monotone rows_done reaching rows_total, a growing
// journal size, and — for client campaigns — a simulated clock that the
// ETA projection is derived from. It must not perturb the matrices.
func TestRunProgressRecords(t *testing.T) {
	var buf bytes.Buffer
	c := tinyCampaign("realistic")
	journal := filepath.Join(t.TempDir(), "c.ckpt")
	res, err := c.Run(context.Background(), RunConfig{
		JournalPath:   journal,
		Progress:      slog.New(slog.NewJSONHandler(&buf, nil)),
		ProgressEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Journal.Close()

	plain := tinyCampaign("realistic")
	plain.BuildMatrices()
	wt, wr := digests(plain)
	gt, gr := digests(c)
	if gt != wt || gr != wr {
		t.Fatal("progress reporting changed the matrices")
	}

	type rec struct {
		Msg          string  `json:"msg"`
		Phase        string  `json:"phase"`
		RowsDone     int     `json:"rows_done"`
		RowsTotal    int     `json:"rows_total"`
		SimClockS    float64 `json:"sim_clock_s"`
		EtaSimS      float64 `json:"eta_sim_s"`
		JournalBytes int64   `json:"journal_bytes"`
	}
	var recs []rec
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var r rec
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("progress record does not parse: %v", err)
		}
		if r.Msg == "progress" {
			recs = append(recs, r)
		}
	}
	total := 2 * len(c.VPs)
	if len(recs) != total {
		t.Fatalf("cadence 1 over %d rows emitted %d records", total, len(recs))
	}
	prevDone := 0
	var prevClock float64
	sawEta := false
	for i, r := range recs {
		if r.RowsTotal != total {
			t.Fatalf("record %d: rows_total %d, want %d", i, r.RowsTotal, total)
		}
		if r.RowsDone != prevDone+1 {
			t.Fatalf("record %d: rows_done %d after %d", i, r.RowsDone, prevDone)
		}
		prevDone = r.RowsDone
		if r.SimClockS < prevClock {
			t.Fatalf("record %d: simulated clock went backwards (%f -> %f)", i, prevClock, r.SimClockS)
		}
		prevClock = r.SimClockS
		if r.Phase != phaseTargets && r.Phase != phaseReps {
			t.Fatalf("record %d: unknown phase %q", i, r.Phase)
		}
		if r.JournalBytes <= 0 {
			t.Fatalf("record %d: journal_bytes %d with journaling on", i, r.JournalBytes)
		}
		if r.EtaSimS > 0 {
			sawEta = true
		}
	}
	if recs[len(recs)-1].RowsDone != total {
		t.Fatalf("final record reports %d/%d rows", recs[len(recs)-1].RowsDone, total)
	}
	if recs[len(recs)-1].SimClockS <= 0 {
		t.Fatal("client campaign never reported a simulated clock")
	}
	if !sawEta {
		t.Fatal("no record carried an ETA projection")
	}
}

// TestRunProgressOnResume: a resumed run opens its reporting with one
// "restore" record accounting every replayed row.
func TestRunProgressOnResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "c.ckpt")
	c := tinyCampaign("none")
	res, err := c.Run(context.Background(), RunConfig{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	res.Journal.Close()

	var buf bytes.Buffer
	c2 := tinyCampaign("none")
	res2, err := c2.Run(context.Background(), RunConfig{
		JournalPath: journal, Resume: true,
		Progress: slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	res2.Journal.Close()
	if res2.RestoredRows != 2*len(c2.VPs) {
		t.Fatalf("restored %d rows, want all %d", res2.RestoredRows, 2*len(c2.VPs))
	}
	out := buf.String()
	if !strings.Contains(out, `"phase":"restore"`) {
		t.Fatalf("no restore progress record in %q", out)
	}
	if !strings.Contains(out, `"rows_done":`+strconv.Itoa(2*len(c2.VPs))) {
		t.Fatalf("restore record does not account all rows: %q", out)
	}
}
