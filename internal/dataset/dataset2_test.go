package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"geoloc/internal/checkpoint"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
)

// writeV2 serializes the compiled fixture through Writer2 and returns
// the artifact path.
func writeV2(t *testing.T, ds *Dataset, blockSize int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.geodset2")
	w, err := NewWriter2(path, ds.Hdr, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Records {
		if err := w.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDataset2RoundTrip: every record written through Writer2 comes
// back through the block reader — scan order, lookup hits, and header
// provenance all matching the in-RAM fixture.
func TestDataset2RoundTrip(t *testing.T) {
	ds := compiled(t)
	for _, blockSize := range []int{1, 3, 16, len(ds.Records), len(ds.Records) + 7} {
		t.Run(fmt.Sprintf("block=%d", blockSize), func(t *testing.T) {
			r2, err := Open2(writeV2(t, ds, blockSize))
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			if r2.NumRecords() != len(ds.Records) {
				t.Fatalf("%d records, want %d", r2.NumRecords(), len(ds.Records))
			}
			wantBlocks := (len(ds.Records) + blockSize - 1) / blockSize
			if r2.NumBlocks() != wantBlocks {
				t.Fatalf("%d blocks, want %d", r2.NumBlocks(), wantBlocks)
			}
			hdr := r2.Header()
			if hdr.Version != Version || hdr.ConfigHash != ds.Hdr.ConfigHash ||
				hdr.Seed != ds.Hdr.Seed || hdr.Profile != ds.Hdr.Profile {
				t.Fatalf("header %+v does not carry fixture provenance %+v", hdr, ds.Hdr)
			}
			i := 0
			if err := r2.All(func(r Record) error {
				if r != ds.Records[i] {
					return fmt.Errorf("record %d: %+v want %+v", i, r, ds.Records[i])
				}
				i++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if i != len(ds.Records) {
				t.Fatalf("scan stopped at %d of %d", i, len(ds.Records))
			}
			for _, want := range ds.Records {
				got, ok, err := r2.Lookup(want.Prefix)
				if err != nil {
					t.Fatal(err)
				}
				if !ok || got != want {
					t.Fatalf("lookup %s: ok=%v got %+v want %+v", want.Prefix, ok, got, want)
				}
			}
		})
	}
}

// TestDataset2LookupOracle compares every block-index lookup against a
// linear scan of the record slice — present prefixes, absent neighbours,
// and the extremes of the key space.
func TestDataset2LookupOracle(t *testing.T) {
	ds := compiled(t)
	r2, err := Open2(writeV2(t, ds, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	linear := func(p ipaddr.Prefix24) (Record, bool) {
		for _, r := range ds.Records {
			if r.Prefix == p {
				return r, true
			}
		}
		return Record{}, false
	}
	probes := []ipaddr.Prefix24{0, 1, 1 << 23, 0xFFFFFF}
	for _, r := range ds.Records {
		probes = append(probes, r.Prefix)
		if r.Prefix > 0 {
			probes = append(probes, r.Prefix-1)
		}
		if r.Prefix < 0xFFFFFF {
			probes = append(probes, r.Prefix+1)
		}
	}
	for _, p := range probes {
		wantR, wantOK := linear(p)
		gotR, gotOK, err := r2.Lookup(p)
		if err != nil {
			t.Fatalf("lookup %s: %v", p, err)
		}
		if gotOK != wantOK || gotR != wantR {
			t.Fatalf("lookup %s: got (%+v, %v), linear scan says (%+v, %v)",
				p, gotR, gotOK, wantR, wantOK)
		}
	}
}

// patchFrameCRC recomputes the CRC of the frame starting at off so a
// deliberate payload tamper isn't masked by the frame checksum — the
// point is to hit the reader's structural validation, not its CRC.
func patchFrameCRC(img []byte, off int) {
	plen := int(binary.LittleEndian.Uint32(img[off+1:]))
	crc := crc32.NewIEEE()
	crc.Write(img[off : off+1])
	crc.Write(img[off+checkpoint.FrameOverhead : off+checkpoint.FrameOverhead+plen])
	binary.LittleEndian.PutUint32(img[off+5:], crc.Sum32())
}

// firstBlockOff is where block 0's frame starts: after the magic and the
// header frame.
func firstBlockOff(img []byte) int {
	return len(Magic2) + checkpoint.FrameOverhead + int(binary.LittleEndian.Uint32(img[len(Magic2)+1:]))
}

// badRecordCases names the ways one record can break an invariant
// verifyBlock checks.
var badRecordCases = []string{"lat-95", "nan-radius", "negative-radius", "unknown-method",
	"unknown-flags", "prefix-over-24-bits", "unsorted", "duplicate-prefix"}

// badRecordDataset returns three records, the middle one broken as named.
// The outer two are sound, so the index entry Encode derives from them
// passes open-time validation and the damage is only visible inside the
// block.
func badRecordDataset(t *testing.T, name string) *Dataset {
	t.Helper()
	good := func(p ipaddr.Prefix24) Record {
		return Record{Prefix: p, Centroid: geo.Point{Lat: 10, Lon: 20}, RadiusKm: 5, Method: MethodCBG, Sanitized: true}
	}
	mid := good(20)
	switch name {
	case "lat-95":
		mid.Centroid.Lat = 95
	case "nan-radius":
		mid.RadiusKm = math.NaN()
	case "negative-radius":
		mid.RadiusKm = -1
	case "unknown-method":
		mid.Method = numMethods
	case "unknown-flags":
		// No Record field carries flag bits: badRecordImage patches the byte.
	case "prefix-over-24-bits":
		mid.Prefix = 1 << 24
	case "unsorted":
		mid.Prefix = 5
	case "duplicate-prefix":
		mid.Prefix = 10
	default:
		t.Fatalf("unknown bad-record case %q", name)
	}
	return &Dataset{Hdr: Header{Seed: 1, Profile: "none"}, Records: []Record{good(10), mid, good(30)}}
}

// badRecordImage is the case's dataset as Encode frames it: one block with
// a valid CRC around the bad record.
func badRecordImage(t *testing.T, name string) []byte {
	t.Helper()
	img := badRecordDataset(t, name).Encode()
	if name == "unknown-flags" {
		off := firstBlockOff(img)
		img[off+checkpoint.FrameOverhead+2+recordPayloadLen+recordPayloadLen-1] |= 0x80 // middle record's flags byte
		patchFrameCRC(img, off)
	}
	return img
}

// TestDataset2ErrorTaxonomy: every way a GEODSET2 file can be damaged
// maps to a named error, and damage the open-time validation cannot see
// (inside a block) surfaces at read time — never as a silent wrong
// answer.
func TestDataset2ErrorTaxonomy(t *testing.T) {
	ds := compiled(t)
	path := writeV2(t, ds, 4)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[0] ^= 0x01
		if _, err := NewReader2(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})

	t.Run("truncation-sweep", func(t *testing.T) {
		// A cut anywhere must be caught at open (the footer is the last
		// thing written, so any truncation destroys it) and must map to a
		// named error.
		for cut := 0; cut < len(img); cut++ {
			_, err := NewReader2(img[:cut])
			if err == nil {
				t.Fatalf("cut %d: truncated file opened cleanly", cut)
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) &&
				!errors.Is(err, ErrBadMagic) {
				t.Fatalf("cut %d: unnamed error %v", cut, err)
			}
		}
	})

	t.Run("footer-crc", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[len(bad)-footerLen] ^= 0x01 // indexOff byte; footer CRC now stale
		if _, err := NewReader2(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[len(Magic2)+checkpoint.FrameOverhead] = 3 // header payload version u32, low byte
		patchFrameCRC(bad, len(Magic2))
		if _, err := NewReader2(bad); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("got %v, want ErrBadVersion", err)
		}
	})

	t.Run("block-offset-wraps", func(t *testing.T) {
		// An index entry whose offset sits just below MaxInt64 makes
		// off+overhead+plen wrap negative; the range check must not be
		// fooled into slicing the image with it.
		indexOff := int(binary.LittleEndian.Uint64(img[len(img)-footerLen:]))
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint64(bad[indexOff+checkpoint.FrameOverhead+12:], math.MaxInt64-5)
		patchFrameCRC(bad, indexOff)
		if _, err := NewReader2(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("block-crc", func(t *testing.T) {
		// Flip a record byte inside the first block without fixing the
		// frame CRC: open succeeds (blocks are validated lazily), the read
		// fails with ErrCorrupt.
		hdrPlen := int(binary.LittleEndian.Uint32(img[len(Magic2)+1:]))
		blockOff := len(Magic2) + checkpoint.FrameOverhead + hdrPlen
		bad := append([]byte(nil), img...)
		bad[blockOff+checkpoint.FrameOverhead+2+8] ^= 0x40 // a centroid byte of record 0
		r2, err := NewReader2(bad)
		if err != nil {
			t.Fatalf("open rejected lazy-validated damage: %v", err)
		}
		if err := r2.All(func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("scan over torn block: got %v, want ErrCorrupt", err)
		}
		if _, _, err := r2.Lookup(ds.Records[0].Prefix); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("lookup into torn block: got %v, want ErrCorrupt", err)
		}
	})

	t.Run("out-of-order-block", func(t *testing.T) {
		// Swap the first two records inside block 0 and re-seal the frame
		// CRC: the checksum passes, the ordering invariant must not.
		hdrPlen := int(binary.LittleEndian.Uint32(img[len(Magic2)+1:]))
		blockOff := len(Magic2) + checkpoint.FrameOverhead + hdrPlen
		bad := append([]byte(nil), img...)
		r0 := blockOff + checkpoint.FrameOverhead + 2
		tmpRec := make([]byte, recordPayloadLen)
		copy(tmpRec, bad[r0:r0+recordPayloadLen])
		copy(bad[r0:r0+recordPayloadLen], bad[r0+recordPayloadLen:r0+2*recordPayloadLen])
		copy(bad[r0+recordPayloadLen:r0+2*recordPayloadLen], tmpRec)
		patchFrameCRC(bad, blockOff)
		r2, err := NewReader2(bad)
		if err != nil {
			// The index carries per-block first keys, so open-time
			// validation may already spot the mismatch; that's fine as long
			// as it's named.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open: got %v, want ErrCorrupt", err)
			}
			return
		}
		if err := r2.All(func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("scan over reordered block: got %v, want ErrCorrupt", err)
		}
	})

	t.Run("bad-record", func(t *testing.T) {
		// A block whose CRC is sound but which holds one record the decoder
		// must refuse: open succeeds on both backings, every read that
		// touches the block answers ErrCorrupt, and keeps answering it.
		for _, name := range badRecordCases {
			t.Run(name, func(t *testing.T) {
				img := badRecordImage(t, name)
				heap, err := NewReader2(img)
				if err != nil {
					t.Fatalf("heap open rejected lazily-validated damage: %v", err)
				}
				mapped, err := openMappedBytes(t, img)
				if err != nil {
					t.Fatalf("mapped open rejected lazily-validated damage: %v", err)
				}
				defer mapped.Close()
				for backing, r2 := range map[string]*Reader2{"heap": heap, "mapped": mapped} {
					for try := 0; try < 2; try++ {
						if _, _, err := r2.Lookup(10); !errors.Is(err, ErrCorrupt) {
							t.Fatalf("%s try %d: lookup of the sound first record: got %v, want ErrCorrupt", backing, try, err)
						}
					}
					if err := r2.All(func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: scan: got %v, want ErrCorrupt", backing, err)
					}
				}
			})
		}
	})

	t.Run("writer-rejects-disorder", func(t *testing.T) {
		w, err := NewWriter2(filepath.Join(t.TempDir(), "x.geodset2"), ds.Hdr, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Abort()
		if err := w.Add(Record{Prefix: 10, Sanitized: true}); err != nil {
			t.Fatal(err)
		}
		if err := w.Add(Record{Prefix: 10, Sanitized: true}); err == nil {
			t.Fatal("duplicate prefix accepted")
		}
		if err := w.Add(Record{Prefix: 9, Sanitized: true}); err == nil {
			t.Fatal("descending prefix accepted")
		}
	})
}
