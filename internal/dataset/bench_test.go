package dataset

import (
	"path/filepath"
	"testing"

	"geoloc/internal/checkpoint"
	"geoloc/internal/ipaddr"
	"geoloc/internal/rhash"
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

// benchFindRecords is large enough (1M records, a 30 MB image) that uniform
// keys miss the cache on most probes, which is the cost FindBatch's
// lockstep exists to overlap.
const benchFindRecords = 1 << 20

// benchFindReader maps a 1M-record artifact with a two-/24 hole after every
// record and draws 1M uniform addresses, 90 % of them covered.
func benchFindReader(b *testing.B) (*Reader2, []ipaddr.Addr) {
	path := filepath.Join(b.TempDir(), "find.geodset2")
	w, err := NewWriter2(path, Header{Seed: 1, Profile: "bench"}, 0)
	if err != nil {
		b.Fatal(err)
	}
	const base, stride = 1 << 16, 3
	for i := 0; i < benchFindRecords; i++ {
		if err := w.Add(Record{Prefix: ipaddr.Prefix24(base + i*stride), RadiusKm: 1}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		b.Fatal(err)
	}
	r2, err := Open2(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r2.Close() })
	rs := rhash.New(0xF1D, 1)
	addrs := make([]ipaddr.Addr, 1<<20)
	for i := range addrs {
		p := ipaddr.Prefix24(base + rs.Intn(benchFindRecords)*stride)
		if rs.Bool(0.1) {
			p++ // the hole after the record
		}
		addrs[i] = p.Addr(byte(i))
	}
	return r2, addrs
}

// BenchmarkFind is one Find per address, one after another.
func BenchmarkFind(b *testing.B) {
	r2, addrs := benchFindReader(b)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if _, ok, err := r2.Find(addrs[i%len(addrs)]); err != nil {
			b.Fatal(err)
		} else if ok {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// BenchmarkFindBatch is the same stream through FindBatch, 256 addresses a
// call; one op is still one address.
func BenchmarkFindBatch(b *testing.B) {
	r2, addrs := benchFindReader(b)
	out := make([]Answer, 256)
	b.ResetTimer()
	hits := 0
	for done := 0; done < b.N; {
		off := done % len(addrs)
		n := min(len(out), b.N-done, len(addrs)-off)
		r2.FindBatch(addrs[off:off+n], out)
		for _, a := range out[:n] {
			if a.Err != nil {
				b.Fatal(a.Err)
			} else if a.Found {
				hits++
			}
		}
		done += n
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}
