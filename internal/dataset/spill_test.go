package dataset

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"

	"geoloc/internal/cbg"
	"geoloc/internal/checkpoint"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
)

// writeRunPerRecord is writeRun as it stood before the one-write spill:
// one Journal.Append — one write(2), two allocations — per record. It is
// the format oracle: whatever writeRun does to go faster, the file must
// stay the one this leaves.
func writeRunPerRecord(path string, hdr checkpoint.Header, window, first uint32, recs []Record) error {
	j, err := checkpoint.Create(path, hdr)
	if err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	for _, r := range recs {
		payload := appendRecord(make([]byte, 0, recordPayloadLen), r)
		crc.Write(payload)
		if err := j.Append(checkpoint.KindRow, payload); err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Append(checkpoint.KindPhase, encodeSeal(window, first, len(recs), crc.Sum32())); err != nil {
		j.Close()
		return err
	}
	return j.Close()
}

// spillRecords fabricates n valid records in prefix order.
func spillRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Prefix:    ipaddr.Prefix24(0x40_0000 + 3*i),
			Centroid:  geo.Point{Lat: float64(i%170) - 85 + 0.125, Lon: float64(i%350) - 175 + 0.0625},
			RadiusKm:  float64(i%997) * 1.5,
			Method:    Method(i % int(numMethods)),
			Sanitized: i%3 != 0,
		}
	}
	return recs
}

// TestSpillRunMatchesPerRecordWriter: the one-write run is byte for byte
// the run the per-record writer leaves — empty, one-record, odd-sized and
// full-window runs, written through ONE buffer in shrinking and growing
// order so stale bytes of an earlier, longer run would show.
func TestSpillRunMatchesPerRecordWriter(t *testing.T) {
	dir := t.TempDir()
	hdr := checkpoint.Header{ConfigHash: 0xFEED_F00D, Seed: 7, Profile: "spill-test"}
	var buf []byte
	for i, n := range []int{DefaultStreamWindow, 7, 0, 1, 300, DefaultStreamWindow + 1} {
		recs := spillRecords(n)
		window, first := uint32(i), uint32(i*DefaultStreamWindow)
		if i == 2 {
			window = extrasWindow
		}
		one := filepath.Join(dir, "one.ckpt")
		per := filepath.Join(dir, "per.ckpt")
		var err error
		if buf, err = writeRun(one, hdr, window, first, recs, buf); err != nil {
			t.Fatal(err)
		}
		if err := writeRunPerRecord(per, hdr, window, first, recs); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(one)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(per)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d records: one-write run (%d bytes) differs from per-record run (%d bytes)", n, len(got), len(want))
		}
		if !validRun(one, hdr, window, first) {
			t.Fatalf("%d records: one-write run does not validate", n)
		}
	}
}

// countingSource counts MeasureTarget calls.
type countingSource struct {
	Source
	calls atomic.Int64
}

func (c *countingSource) MeasureTarget(t int, buf []cbg.Measurement) (ipaddr.Prefix24, []cbg.Measurement) {
	c.calls.Add(1)
	return c.Source.MeasureTarget(t, buf)
}

// TestResumeReusesPerRecordSpill: a spill directory left by the
// per-record writer — a compile killed before this change, resumed after
// it — is reused whole: every window replayed, no target re-measured,
// the artifact the uninterrupted one.
func TestResumeReusesPerRecordSpill(t *testing.T) {
	const targets, window = 100, 16 // the last window is short
	src := streamSource(t, targets, 6)
	hdr := StreamHeader(src)
	want := externalGolden(t, src, hdr, window)

	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	shdr := spillHeader(hdr, window)
	windows := (targets + window - 1) / window
	var ms []cbg.Measurement
	for w := 0; w < windows; w++ {
		lo, hi := w*window, min((w+1)*window, targets)
		var recs []Record
		for tgt := lo; tgt < hi; tgt++ {
			var p ipaddr.Prefix24
			p, ms = src.MeasureTarget(tgt, ms)
			rec, ok := compileRecord(ms, geo.TwoThirdsC)
			if !ok {
				continue
			}
			rec.Prefix, rec.Sanitized = p, true
			recs = append(recs, rec)
		}
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Prefix < recs[j].Prefix })
		if err := writeRunPerRecord(runPath(spill, w), shdr, uint32(w), uint32(lo), recs); err != nil {
			t.Fatal(err)
		}
	}

	counted := &countingSource{Source: src}
	out := filepath.Join(dir, "a.geodset")
	stats, err := CompileExternal(out, counted, hdr, Options{}, nil, StreamConfig{
		Window:   window,
		SpillDir: spill,
		Resume:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != windows || stats.WindowsReused != stats.Windows {
		t.Fatalf("resume reused %d of %d windows, want all %d", stats.WindowsReused, stats.Windows, windows)
	}
	if n := counted.calls.Load(); n != 0 {
		t.Fatalf("resume re-measured %d targets over a complete per-record spill", n)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("artifact resumed from a per-record spill differs from the uninterrupted one")
	}
}
