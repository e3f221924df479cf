package dataset

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
)

// namedDecodeError reports whether err is one of the package's named
// decode failures.
func namedDecodeError(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion) ||
		errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) ||
		errors.Is(err, ErrNoHeader)
}

// addSeedImages seeds a fuzz target with a two-block artifact, its
// truncations, and targeted mutations of the regions each validation
// layer guards, so the fuzzer starts at the format's edges.
func addSeedImages(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.geodset2")
	w, err := NewWriter2(path, Header{ConfigHash: 0xABCD, Seed: 7, Profile: "none"}, 2)
	if err != nil {
		f.Fatal(err)
	}
	for i, pt := range []geo.Point{{Lat: 48.8, Lon: 2.3}, {Lat: -33.9, Lon: 151.2}, {Lat: 1.3, Lon: 103.8}} {
		if err := w.Add(Record{Prefix: ipaddr.Prefix24(0x0A0000 + i), Centroid: pt,
			RadiusKm: float64(50 * (i + 1)), Method: MethodCBG, Sanitized: true}); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		f.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:len(Magic2)])
	f.Add(img[:len(img)-1])
	f.Add(img[:len(img)-footerLen])
	f.Add(img[:len(img)/2])
	f.Add([]byte{})
	f.Add([]byte(Magic2))
	f.Add([]byte("GEODSET3junk"))
	for _, off := range []int{len(Magic2) + 2, len(img) / 2, len(img) - footerLen + 3, len(img) - 4} {
		mut := append([]byte(nil), img...)
		mut[off] ^= 0x40
		f.Add(mut)
	}
}

// FuzzDatasetDecoder comes at the decoder from the other side: arbitrary
// records, framed by Encode (which encodes whatever it is given), then
// read back. The reader must accept the image exactly when the records are
// ones Writer2 and decodeRecord would take — strictly ascending, every
// field in range — return them unchanged when it does, and refuse with
// ErrCorrupt when it does not: the gate serve's Publish puts in front of
// an in-process dataset. The input is a run of raw 30-byte record
// payloads; a trailing partial payload is ignored.
//
// Run locally with:
//
//	go test -fuzz FuzzDatasetDecoder -fuzztime 30s ./internal/dataset
func FuzzDatasetDecoder(f *testing.F) {
	raw := func(recs ...Record) []byte {
		var b []byte
		for _, r := range recs {
			b = appendRecord(b, r)
		}
		return b
	}
	good := func(p ipaddr.Prefix24) Record {
		return Record{Prefix: p, Centroid: geo.Point{Lat: 48.8, Lon: 2.3}, RadiusKm: 120, Method: MethodCBG, Sanitized: true}
	}
	with := func(r Record, edit func(*Record)) Record {
		edit(&r)
		return r
	}
	f.Add(raw())
	f.Add(raw(good(10), good(20), good(30)))
	f.Add(raw(good(10), good(30), good(20)))
	f.Add(raw(good(10), good(10)))
	f.Add(raw(good(10), good(1<<24), good(1<<24+1)))
	f.Add(raw(good(10), with(good(20), func(r *Record) { r.Centroid.Lat = 95 }), good(30)))
	f.Add(raw(with(good(10), func(r *Record) { r.RadiusKm = math.NaN() })))
	f.Add(raw(good(10), with(good(20), func(r *Record) { r.RadiusKm = -1 })))
	f.Add(raw(good(10), with(good(20), func(r *Record) { r.Method = numMethods })))

	f.Fuzz(func(t *testing.T, data []byte) {
		ds := &Dataset{Hdr: Header{Seed: 7, Profile: "fuzz"}}
		valid := true
		for ; len(data) >= recordPayloadLen; data = data[recordPayloadLen:] {
			p := data[:recordPayloadLen]
			r := Record{
				Prefix: ipaddr.Prefix24(binary.LittleEndian.Uint32(p)),
				Centroid: geo.Point{
					Lat: math.Float64frombits(binary.LittleEndian.Uint64(p[4:])),
					Lon: math.Float64frombits(binary.LittleEndian.Uint64(p[12:])),
				},
				RadiusKm:  math.Float64frombits(binary.LittleEndian.Uint64(p[20:])),
				Method:    Method(p[28]),
				Sanitized: p[29]&flagSanitized != 0,
			}
			if _, err := decodeRecord(appendRecord(nil, r)); err != nil {
				valid = false
			}
			if n := len(ds.Records); n > 0 && ds.Records[n-1].Prefix >= r.Prefix {
				valid = false
			}
			ds.Records = append(ds.Records, r)
		}
		var got *Dataset
		r2, err := NewReader2(ds.Encode())
		if err == nil {
			got, err = r2.Materialize()
		}
		switch {
		case err != nil && valid:
			t.Fatalf("%d valid records refused: %v", len(ds.Records), err)
		case err != nil && !errors.Is(err, ErrCorrupt):
			t.Fatalf("invalid records refused with %v, want ErrCorrupt", err)
		case err == nil && !valid:
			t.Fatalf("%d records, at least one invalid or out of order, accepted", len(ds.Records))
		case err == nil && !slices.Equal(got.Records, ds.Records):
			t.Fatal("accepted records came back changed")
		}
	})
}

// FuzzDataset2Decoder throws arbitrary bytes at the block-indexed
// reader and checks its safety contract at both validation layers:
// NewReader2's eager checks (footer, index, header) and the lazy
// per-block checks behind All/Lookup. No panics, no unvalidated-length
// allocations, every failure a named error — torn blocks, bad CRCs and
// out-of-order keys included. When the file opens, a full scan must
// yield exactly the advertised record count in strictly ascending
// order, every scanned record must be findable by Lookup, and every
// edge probe must get from Find what the scanned records say.
//
// Run locally with:
//
//	go test -fuzz FuzzDataset2Decoder -fuzztime 30s ./internal/dataset
func FuzzDataset2Decoder(f *testing.F) {
	addSeedImages(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r2, err := NewReader2(data)
		if err != nil {
			if !namedDecodeError(err) {
				t.Fatalf("unnamed open error: %v", err)
			}
			return
		}
		// FindBatch against Find, before the scan so that an image with a
		// damaged block is compared too: the keys at every block's edges and
		// just outside them, in one batch.
		probes := []ipaddr.Addr{0, 0xFFFFFFFF}
		for _, b := range r2.blocks[:min(len(r2.blocks), 64)] {
			probes = append(probes, (b.first - 1).Addr(0), b.first.Addr(1), b.last.Addr(2), (b.last + 1).Addr(3))
		}
		answers := make([]Answer, len(probes))
		r2.FindBatch(probes, answers)
		found := make([]Answer, len(probes))
		for i, a := range probes {
			r, ok, err := r2.Find(a)
			if err != nil && !namedDecodeError(err) {
				t.Fatalf("unnamed Find error: %v", err)
			}
			if !sameAnswer(answers[i], r, ok, err) {
				t.Fatalf("FindBatch(%s) = %+v, Find says (%+v, %v, %v)", a, answers[i], r, ok, err)
			}
			found[i] = Answer{Rec: r, Found: ok, Err: err}
		}
		var recs []Record
		scanErr := r2.All(func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if scanErr != nil {
			if !namedDecodeError(scanErr) {
				t.Fatalf("unnamed scan error: %v", scanErr)
			}
			return
		}
		if len(recs) != r2.NumRecords() {
			t.Fatalf("scan yielded %d records, footer advertised %d", len(recs), r2.NumRecords())
		}
		// The edge probes against the scan, which reads no window: both
		// search paths share them, so agreeing with each other is not enough.
		scanned := make(map[ipaddr.Prefix24]Record, len(recs))
		for _, r := range recs {
			scanned[r.Prefix] = r
		}
		for i, a := range probes {
			want, ok := scanned[ipaddr.Prefix24Of(a)]
			if !sameAnswer(found[i], want, ok, nil) {
				t.Fatalf("edge probe %s: Find said %+v, the scan says (%+v, %v)", a, found[i], want, ok)
			}
		}
		for i, r := range recs {
			if i > 0 && recs[i-1].Prefix >= r.Prefix {
				t.Fatalf("accepted unsorted records at %d", i)
			}
			if uint32(r.Prefix) > 0x00FF_FFFF || Method(r.Method) >= numMethods {
				t.Fatalf("accepted invalid record %+v", r)
			}
			got, ok, err := r2.Lookup(r.Prefix)
			if err != nil || !ok || got != r {
				t.Fatalf("scanned record %s not found by lookup (ok=%v err=%v)", r.Prefix, ok, err)
			}
		}
		// Every scanned record through the lanes as well.
		addrs := make([]ipaddr.Addr, len(recs))
		for i, r := range recs {
			addrs[i] = r.Prefix.Addr(byte(i))
		}
		answers = make([]Answer, len(recs))
		r2.FindBatch(addrs, answers)
		for i, r := range recs {
			if !sameAnswer(answers[i], r, true, nil) {
				t.Fatalf("scanned record %s: FindBatch says %+v", r.Prefix, answers[i])
			}
		}
	})
}
