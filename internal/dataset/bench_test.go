package dataset

import (
	"path/filepath"
	"testing"

	"geoloc/internal/checkpoint"
)

var sinkRunBuf []byte

// benchSpill times spilling one default window of records as a sealed,
// fsynced run — the serial step between two windows of a streaming
// compile. One op is one run, so `-benchtime 1x` still
// frames 4,096 records.
func benchSpill(b *testing.B, write func(path string, recs []Record) error) {
	recs := spillRecords(DefaultStreamWindow)
	path := filepath.Join(b.TempDir(), "run.ckpt")
	if err := write(path, recs); err != nil { // grow the run buffer outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(path, recs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}

var benchSpillHdr = checkpoint.Header{ConfigHash: 0xB0B, Seed: 1, Profile: "bench"}

// BenchmarkSpillRun is the one-write spill (writeRun).
func BenchmarkSpillRun(b *testing.B) {
	benchSpill(b, func(path string, recs []Record) (err error) {
		sinkRunBuf, err = writeRun(path, benchSpillHdr, 0, 0, recs, sinkRunBuf)
		return err
	})
}

// BenchmarkSpillRunPerRecord is the same run through the per-record
// oracle: one write(2) and two allocations a record.
func BenchmarkSpillRunPerRecord(b *testing.B) {
	benchSpill(b, func(path string, recs []Record) error {
		return writeRunPerRecord(path, benchSpillHdr, 0, 0, recs)
	})
}
