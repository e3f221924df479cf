package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"geoloc/internal/core"
)

// streamSource builds the synthetic stream fixture the spill tests use:
// cheap enough for truncation sweeps, and — unlike the campaign source —
// needing no matrices.
func streamSource(t *testing.T, targets, k int) *core.StreamCampaign {
	t.Helper()
	s, err := core.NewStreamCampaign(tinyCampaign(t), core.StreamSpec{Targets: targets, VPsPerTarget: k})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCompileExternalBitIdentical is the tentpole property test: the
// external-merge compiler's output must match the in-RAM oracle's Write
// byte for byte — across window sizes (1 = every target its own run, 7 =
// windows that straddle /24 duplicates unevenly, 64, N = one run) and
// GOMAXPROCS (the par determinism-digest pattern), with and without the
// unsanitized extras that exercise cross-run dedupe. One more case leaves
// the default block size, where no Write bytes exist to compare with, and
// checks the artifact through the reader instead.
func TestCompileExternalBitIdentical(t *testing.T) {
	c := tinyCampaign(t)
	src := NewCampaignSource(c)
	hdr := CampaignHeader(c)
	n := len(c.Targets)
	for _, unsan := range []bool{false, true} {
		opts := Options{IncludeUnsanitized: unsan}
		oracle := Compile(c, opts)
		oraclePath := filepath.Join(t.TempDir(), "oracle.geodset")
		if err := oracle.Write(oraclePath); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(oraclePath)
		if err != nil {
			t.Fatal(err)
		}
		extra := CampaignExtras(c, opts)
		for _, window := range []int{1, 7, 64, n} {
			for _, procs := range []int{1, 4} {
				name := fmt.Sprintf("unsan=%v/window=%d/procs=%d", unsan, window, procs)
				t.Run(name, func(t *testing.T) {
					prev := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(prev)
					dir := t.TempDir()
					out := filepath.Join(dir, "ext.geodset")
					stats, err := CompileExternal(out, src, hdr, opts, extra, StreamConfig{
						Window:   window,
						SpillDir: filepath.Join(dir, "spill"),
					})
					if err != nil {
						t.Fatal(err)
					}
					got, err := os.ReadFile(out)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("external output differs from oracle (%d vs %d bytes, %d records)",
							len(got), len(want), stats.Records)
					}
					if stats.Records != len(oracle.Records) {
						t.Fatalf("stats say %d records, oracle has %d", stats.Records, len(oracle.Records))
					}
					wantWindows := (n + window - 1) / window
					if stats.Windows != wantWindows {
						t.Fatalf("stats say %d windows, want %d", stats.Windows, wantWindows)
					}
				})
			}
		}
	}

	t.Run("blocksize=32", func(t *testing.T) {
		opts := Options{IncludeUnsanitized: true}
		oracle := Compile(c, opts)
		dir := t.TempDir()
		out := filepath.Join(dir, "ext.geodset2")
		stats, err := CompileExternal(out, src, hdr, opts, CampaignExtras(c, opts), StreamConfig{
			Window:    48,
			SpillDir:  filepath.Join(dir, "spill"),
			BlockSize: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Open2(out)
		if err != nil {
			t.Fatal(err)
		}
		defer r2.Close()
		if r2.Header() != oracle.Hdr {
			t.Fatalf("header %+v, want %+v", r2.Header(), oracle.Hdr)
		}
		if r2.NumRecords() != len(oracle.Records) {
			t.Fatalf("%d records, oracle has %d", r2.NumRecords(), len(oracle.Records))
		}
		if stats.Blocks != r2.NumBlocks() || stats.Blocks != (len(oracle.Records)+31)/32 {
			t.Fatalf("stats report %d blocks, reader %d", stats.Blocks, r2.NumBlocks())
		}
		i := 0
		if err := r2.All(func(r Record) error {
			if r != oracle.Records[i] {
				return fmt.Errorf("record %d: got %+v want %+v", i, r, oracle.Records[i])
			}
			i++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if i != len(oracle.Records) {
			t.Fatalf("scan yielded %d records, oracle has %d", i, len(oracle.Records))
		}
	})
}

var errInjectedKill = errors.New("injected kill")

// externalGolden runs an uninterrupted streaming compile and returns
// the artifact bytes.
func externalGolden(t *testing.T, src Source, hdr Header, window int) []byte {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "golden.geodset")
	if _, err := CompileExternal(out, src, hdr, Options{}, nil, StreamConfig{
		Window:   window,
		SpillDir: filepath.Join(dir, "spill"),
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCompileExternalKillResumeWindows kills the compilation at every
// window boundary (the OnWindowSpilled hook is the crash injection
// point: the run file is sealed and fsynced, the process "dies" before
// the next window) and resumes; the final artifact must be
// bit-identical and the sealed runs must be reused, not re-measured.
func TestCompileExternalKillResumeWindows(t *testing.T) {
	const targets, window = 96, 16
	src := streamSource(t, targets, 6)
	hdr := StreamHeader(src)
	want := externalGolden(t, src, hdr, window)
	windows := (targets + window - 1) / window
	for kill := 0; kill < windows-1; kill++ {
		t.Run(fmt.Sprintf("kill-after-window-%d", kill), func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, "a.geodset")
			spill := filepath.Join(dir, "spill")
			_, err := CompileExternal(out, src, hdr, Options{}, nil, StreamConfig{
				Window:   window,
				SpillDir: spill,
				OnWindowSpilled: func(w int) error {
					if w == kill {
						return errInjectedKill
					}
					return nil
				},
			})
			if !errors.Is(err, errInjectedKill) {
				t.Fatalf("expected injected kill, got %v", err)
			}
			if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("artifact exists after crash: %v", err)
			}
			stats, err := CompileExternal(out, src, hdr, Options{}, nil, StreamConfig{
				Window:   window,
				SpillDir: spill,
				Resume:   true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.WindowsReused != kill+1 {
				t.Fatalf("resume reused %d windows, want %d", stats.WindowsReused, kill+1)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("resumed artifact differs from uninterrupted run")
			}
		})
	}
}

// TestCompileExternalKillResumeEveryByte is the mid-spill sweep: crash
// after window 2, then truncate the last run file at EVERY byte length
// (simulating a kill mid-write of the spill itself, torn tail
// included), resume, and require the artifact bit-identical each time.
// This reuses the journal's kill-at-any-byte property (DESIGN.md §3.3)
// at the spill layer: a torn or unsealed run is re-measured, a sealed
// one replayed.
func TestCompileExternalKillResumeEveryByte(t *testing.T) {
	const targets, window, killAfter = 64, 8, 2
	src := streamSource(t, targets, 6)
	hdr := StreamHeader(src)
	want := externalGolden(t, src, hdr, window)

	// One crashed compile provides the spill-dir template.
	tmplDir := t.TempDir()
	tmpl := filepath.Join(tmplDir, "spill")
	_, err := CompileExternal(filepath.Join(tmplDir, "a.geodset"), src, hdr, Options{}, nil, StreamConfig{
		Window:   window,
		SpillDir: tmpl,
		OnWindowSpilled: func(w int) error {
			if w == killAfter {
				return errInjectedKill
			}
			return nil
		},
	})
	if !errors.Is(err, errInjectedKill) {
		t.Fatalf("expected injected kill, got %v", err)
	}
	lastRun := filepath.Join(tmpl, fmt.Sprintf("run-%05d.ckpt", killAfter))
	full, err := os.ReadFile(lastRun)
	if err != nil {
		t.Fatal(err)
	}

	work := t.TempDir()
	spill := filepath.Join(work, "spill")
	out := filepath.Join(work, "a.geodset")
	for cut := 0; cut <= len(full); cut++ {
		// Rebuild the spill dir: intact earlier runs, last run cut short.
		if err := os.RemoveAll(spill); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(spill, 0o755); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < killAfter; w++ {
			name := fmt.Sprintf("run-%05d.ckpt", w)
			data, err := os.ReadFile(filepath.Join(tmpl, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(spill, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(spill, filepath.Base(lastRun)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		os.Remove(out)
		stats, err := CompileExternal(out, src, hdr, Options{}, nil, StreamConfig{
			Window:   window,
			SpillDir: spill,
			Resume:   true,
		})
		if err != nil {
			t.Fatalf("cut %d: resume failed: %v", cut, err)
		}
		if stats.WindowsReused < killAfter {
			t.Fatalf("cut %d: only %d windows reused", cut, stats.WindowsReused)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cut %d: resumed artifact differs from golden", cut)
		}
	}
}

// TestCompileExternalResumeRejectsForeignRuns: runs from a different
// window size (or campaign) must not be replayed — the spill header
// hash pins both.
func TestCompileExternalResumeRejectsForeignRuns(t *testing.T) {
	const targets = 64
	src := streamSource(t, targets, 6)
	hdr := StreamHeader(src)
	want := externalGolden(t, src, hdr, 8)

	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	out := filepath.Join(dir, "a.geodset")
	// Crash a window-16 compile, then resume with window 8: nothing may
	// be reused, and the result must still be the window-8 golden bytes.
	_, err := CompileExternal(out, src, hdr, Options{}, nil, StreamConfig{
		Window:   16,
		SpillDir: spill,
		OnWindowSpilled: func(w int) error {
			if w == 1 {
				return errInjectedKill
			}
			return nil
		},
	})
	if !errors.Is(err, errInjectedKill) {
		t.Fatalf("expected injected kill, got %v", err)
	}
	stats, err := CompileExternal(out, src, hdr, Options{}, nil, StreamConfig{
		Window:   8,
		SpillDir: spill,
		Resume:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WindowsReused != 0 {
		t.Fatalf("reused %d foreign runs", stats.WindowsReused)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("artifact differs after window-size change")
	}
}

// TestCompileExternalDetectsCorruptRun: a bit flip in the middle of a
// sealed run must cause re-measurement (validRun fails), never replay
// of damaged records.
func TestCompileExternalDetectsCorruptRun(t *testing.T) {
	const targets, window = 64, 8
	src := streamSource(t, targets, 6)
	hdr := StreamHeader(src)
	want := externalGolden(t, src, hdr, window)

	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	out := filepath.Join(dir, "a.geodset")
	_, err := CompileExternal(out, src, hdr, Options{}, nil, StreamConfig{
		Window:   window,
		SpillDir: spill,
		OnWindowSpilled: func(w int) error {
			if w == 2 {
				return errInjectedKill
			}
			return nil
		},
	})
	if !errors.Is(err, errInjectedKill) {
		t.Fatal("expected injected kill")
	}
	victim := filepath.Join(spill, "run-00001.ckpt")
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := CompileExternal(out, src, hdr, Options{}, nil, StreamConfig{
		Window:   window,
		SpillDir: spill,
		Resume:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WindowsReused != 2 { // runs 0 and 2 survive, 1 was damaged
		t.Fatalf("reused %d windows, want 2", stats.WindowsReused)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("artifact differs after corrupt-run re-measurement")
	}
}

// TestCompileExternalSpillCleanup: run files are deleted on success by
// default and kept under KeepSpill.
func TestCompileExternalSpillCleanup(t *testing.T) {
	src := streamSource(t, 32, 6)
	hdr := StreamHeader(src)
	for _, keep := range []bool{false, true} {
		dir := t.TempDir()
		spill := filepath.Join(dir, "spill")
		if _, err := CompileExternal(filepath.Join(dir, "a.geodset"), src, hdr, Options{}, nil,
			StreamConfig{Window: 8, SpillDir: spill, KeepSpill: keep}); err != nil {
			t.Fatal(err)
		}
		runs, err := filepath.Glob(filepath.Join(spill, "run-*.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		if keep && len(runs) != 4 {
			t.Fatalf("KeepSpill left %d runs, want 4", len(runs))
		}
		if !keep && len(runs) != 0 {
			t.Fatalf("%d runs left after cleanup", len(runs))
		}
	}
}
