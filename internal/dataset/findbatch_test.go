package dataset

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"geoloc/internal/checkpoint"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/rhash"
)

// gappedDataset draws n records 1–3 /24s apart, starting well above zero
// and ending well below the top of the key space, so there are absent keys
// below the first record, above the last, inside blocks and between them.
func gappedDataset(n int) *Dataset {
	rs := rhash.New(0xBA7C4, 22)
	ds := &Dataset{Hdr: Header{Seed: 22, Profile: "synthetic"}}
	p := ipaddr.Prefix24Of(ipaddr.MustParse("10.20.0.0"))
	for i := 0; i < n; i++ {
		p += ipaddr.Prefix24(1 + rs.Intn(3))
		ds.Records = append(ds.Records, randomRecord(rs, p))
	}
	return ds
}

// clusteredDataset strays far from a straight line: dense runs of /24s
// split by jumps of up to 2^16, record clusteredOutlier 2^20 past its
// neighbour, and the first and last keys at 0 and 0xFFFFFF. The outlier is
// the last record of its block at block sizes 1, 3 and 256.
func clusteredDataset() *Dataset {
	const n = 1000
	rs := rhash.New(0xC1A5, 23)
	ds := &Dataset{Hdr: Header{Seed: 23, Profile: "synthetic"}}
	p := ipaddr.Prefix24(0)
	for i := 0; i < n; i++ {
		switch {
		case i == 0:
		case i == n-1:
			p = 0x00FF_FFFF
		case i == clusteredOutlier:
			p += 1 << 20
		case rs.Bool(1.0 / 32):
			p += ipaddr.Prefix24(2 + rs.Intn(1<<16-1))
		default:
			p++
		}
		ds.Records = append(ds.Records, randomRecord(rs, p))
	}
	return ds
}

// clusteredOutlier ends a block at every block size that divides 768.
const clusteredOutlier = 767

// randomRecord is a valid record for prefix p.
func randomRecord(rs *rhash.Stream, p ipaddr.Prefix24) Record {
	return Record{
		Prefix:    p,
		Centroid:  geo.Point{Lat: rs.Range(-80, 80), Lon: rs.Range(-179, 179)},
		RadiusKm:  rs.Range(0.5, 900),
		Method:    MethodCBG,
		Sanitized: rs.Bool(0.8),
	}
}

// sameAnswer compares FindBatch's answer with Find's three results. Errors
// compare by text: both paths report a damaged block through verifyBlock.
func sameAnswer(a Answer, r Record, ok bool, err error) bool {
	if (a.Err == nil) != (err == nil) || (err != nil && a.Err.Error() != err.Error()) {
		return false
	}
	return a.Found == ok && a.Rec == r
}

// bothBackings opens one artifact file as a mapping and as heap bytes.
func bothBackings(t *testing.T, path string) map[string]*Reader2 {
	t.Helper()
	mapped, err := Open2(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := NewReader2(img)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { heap.Close() })
	return map[string]*Reader2{"mapped": mapped, "heap": heap}
}

// TestFindBatchOracle: on a layout with small gaps, for both backings,
// block sizes that make every record a block, leave a partial last block,
// and hold many records, and batch sizes on every side of the lane count,
// FindBatch gives each item the answer Find gives it and a linear scan of
// the records confirms — duplicates in one batch and absent keys below,
// above, inside and between blocks included. Every window holds its
// answers (checkWindows).
func TestFindBatchOracle(t *testing.T) { testFindBatchOracle(t, gappedDataset(700)) }

// TestFindBatchOracleClustered is TestFindBatchOracle on clustered runs far
// from a straight line that reach both ends of the key space.
func TestFindBatchOracleClustered(t *testing.T) { testFindBatchOracle(t, clusteredDataset()) }

func testFindBatchOracle(t *testing.T, ds *Dataset) {
	want := make(map[ipaddr.Prefix24]Record, len(ds.Records))
	for _, r := range ds.Records {
		want[r.Prefix] = r
	}
	first, last := ds.Records[0].Prefix, ds.Records[len(ds.Records)-1].Prefix
	probes := []ipaddr.Addr{0, 0xFFFFFFFF, (first - 1).Addr(255), (first - 9).Addr(1), (last + 1).Addr(0), (last + 9).Addr(3)}
	for i, r := range ds.Records {
		probes = append(probes, r.Prefix.Addr(byte(i)), (r.Prefix + 1).Addr(byte(i)), (r.Prefix - 1).Addr(byte(i)))
	}

	for _, blockSize := range []int{1, 3, 256} {
		t.Run(fmt.Sprintf("block=%d", blockSize), func(t *testing.T) {
			readers := bothBackings(t, writeV2(t, ds, blockSize))
			for name, r2 := range readers {
				checkWindows(t, name, r2, ds)
			}
			if blockSize == 3 {
				// The fixture must probe a gap between two blocks.
				between := false
				for i := blockSize; i < len(ds.Records); i += blockSize {
					between = between || ds.Records[i-1].Prefix+1 < ds.Records[i].Prefix
				}
				if !between {
					t.Fatal("fixture has no absent /24 between two blocks")
				}
			}
			rs := rhash.New(0xF1D, uint64(blockSize))
			for _, size := range []int{0, 1, batchLanes - 1, batchLanes, batchLanes + 1, 1024} {
				batch := make([]ipaddr.Addr, size)
				for i := range batch {
					batch[i] = probes[rs.Intn(len(probes))]
				}
				if size >= batchLanes+1 {
					// Duplicates in one lane group and across two.
					batch[1], batch[batchLanes] = batch[0], batch[0]
				}
				for name, r2 := range readers {
					// One slot more than the batch: FindBatch must leave it alone.
					out := make([]Answer, size+1)
					guard := Answer{Rec: Record{Prefix: 0xABCDEF}, Found: true, Err: errors.New("guard")}
					for i := range out {
						out[i] = guard
					}
					r2.FindBatch(batch, out)
					if out[size] != guard {
						t.Fatalf("%s size %d: FindBatch wrote past the batch", name, size)
					}
					for i, a := range batch {
						r, ok, err := r2.Find(a)
						wantR, wantOK := want[ipaddr.Prefix24Of(a)]
						if err != nil || ok != wantOK || r != wantR {
							t.Fatalf("%s Find(%s) = (%+v, %v, %v), records say (%+v, %v)", name, a, r, ok, err, wantR, wantOK)
						}
						if lr, lok, lerr := r2.Lookup(ipaddr.Prefix24Of(a)); lerr != nil || lok != wantOK || lr != wantR {
							t.Fatalf("%s Lookup(%s) = (%+v, %v, %v), records say (%+v, %v)", name, ipaddr.Prefix24Of(a), lr, lok, lerr, wantR, wantOK)
						}
						if !sameAnswer(out[i], r, ok, err) {
							t.Fatalf("%s size %d item %d: FindBatch(%s) = %+v, Find says (%+v, %v, %v)", name, size, i, a, out[i], r, ok, err)
						}
					}
				}
			}
		})
	}
}

// checkWindows verifies every block of r2, which holds ds, and requires
// each window to hold its answer: at level 2, for every key in the block's
// [first, last], present or absent, the last record <= the key; at level
// 1, for every block's first key, the key before it and the block's last
// key, the block the key lands in.
func checkWindows(t *testing.T, name string, r2 *Reader2, ds *Dataset) {
	t.Helper()
	nb := len(r2.blocks)
	lo1, hi1 := r2.first[0], r2.first[nb-1]
	inWindow1 := func(k uint32, want int) {
		t.Helper()
		g := guess(min(max(k, lo1), hi1), lo1, hi1, nb)
		if lo, w := window(g, r2.firstBelow, r2.firstAbove, nb); want < lo || want >= lo+w {
			t.Fatalf("%s: key %#x lands in block %d, outside its level-1 window [%d, %d)", name, k, want, lo, lo+w)
		}
	}
	start := 0
	for i, b := range r2.blocks {
		inWindow1(uint32(b.first), i)
		inWindow1(uint32(b.last), i)
		if i > 0 {
			inWindow1(uint32(b.first)-1, i-1)
		}
		if _, _, err := r2.blockPayload(i); err != nil {
			t.Fatal(err)
		}
		st := r2.state[i].Load()
		recs := ds.Records[start : start+int(b.count)]
		start += int(b.count)
		j := 0
		for k := uint32(b.first); k <= uint32(b.last); k++ {
			for j+1 < len(recs) && uint32(recs[j+1].Prefix) <= k {
				j++
			}
			if lo, w := b.window(k, st); j < lo || j >= lo+w {
				t.Fatalf("%s block %d: key %#x answers record %d, outside its window [%d, %d)", name, i, k, j, lo, lo+w)
			}
		}
	}
}

// TestFindBatchDamagedBlock: a block whose payload no longer matches its
// CRC fails exactly the items that land in its key range — absent keys in
// that range too, as with Find — with ErrCorrupt, every other item of the
// same batch is answered, and a second batch fails the same items again:
// the block's state word (Reader2.state) is stored only after a clean
// check.
func TestFindBatchDamagedBlock(t *testing.T) {
	const blockSize, damaged = 4, 5
	ds := gappedDataset(40)
	img := ds.Encode()
	clean, err := NewReader2(img)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	// Encode frames at DefaultBlockSize; re-frame at blockSize through a file.
	path := writeV2(t, ds, blockSize)
	if img, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	lo, hi := ds.Records[damaged*blockSize].Prefix, ds.Records[(damaged+1)*blockSize-1].Prefix
	off := firstBlockOff(img) + damaged*(checkpoint.FrameOverhead+2+blockSize*recordPayloadLen)
	img[off+checkpoint.FrameOverhead+2+recordPayloadLen+5] ^= 0x40 // a latitude byte of the block's second record

	var batch []ipaddr.Addr
	for p := ds.Records[0].Prefix - 2; p <= ds.Records[len(ds.Records)-1].Prefix+2; p++ {
		batch = append(batch, p.Addr(byte(p)))
	}
	heap, err := NewReader2(append([]byte(nil), img...))
	if err != nil {
		t.Fatal(err)
	}
	defer heap.Close()
	mapped, err := openMappedBytes(t, img)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	for name, r2 := range map[string]*Reader2{"heap": heap, "mapped": mapped} {
		out := make([]Answer, len(batch))
		for pass := 0; pass < 2; pass++ {
			r2.FindBatch(batch, out)
			failed := 0
			for i, a := range batch {
				r, ok, err := r2.Find(a)
				if !sameAnswer(out[i], r, ok, err) {
					t.Fatalf("%s pass %d: FindBatch(%s) = %+v, Find says (%+v, %v, %v)", name, pass, a, out[i], r, ok, err)
				}
				if p := ipaddr.Prefix24Of(a); p >= lo && p <= hi {
					failed++
					if !errors.Is(out[i].Err, ErrCorrupt) || out[i].Found {
						t.Fatalf("%s pass %d: %s lands in the damaged block, got %+v, want ErrCorrupt", name, pass, a, out[i])
					}
					continue
				}
				wantR, wantOK, _ := clean.Find(a)
				if out[i].Err != nil || out[i].Found != wantOK || out[i].Rec != wantR {
					t.Fatalf("%s pass %d: %s is outside the damaged block, got %+v, want (%+v, %v)", name, pass, a, out[i], wantR, wantOK)
				}
			}
			if failed != int(hi-lo)+1 {
				t.Fatalf("%s pass %d: %d items failed, the damaged block spans %d keys", name, pass, failed, int(hi-lo)+1)
			}
		}
	}
}

// TestWindowShare reports how often a lookup gets away with one probe a
// level: the share of blocks whose window is at most two records, and the
// level-1 window, for the Find benchmarks' two images and for a Tiny
// streamed compile (CompileExternal). A fixed stride puts every key on its
// line, so the uniform image must be all narrow windows.
func TestWindowShare(t *testing.T) {
	dir := t.TempDir()
	n := benchFindRecords
	if testing.Short() {
		n >>= 4 // the images' first 64k records
	}
	paths := map[string]string{}
	for _, layout := range benchFindImages {
		paths[layout], _ = writeFindImage(t, dir, layout, n)
	}
	paths["tiny-stream"] = filepath.Join(dir, "stream.geodset2")
	if _, err := CompileExternal(paths["tiny-stream"], streamSource(t, 20000, 6), Header{Seed: 1, Profile: "stream"},
		Options{}, nil, StreamConfig{SpillDir: filepath.Join(dir, "spill")}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"uniform", "tiny-stream", "clustered"} {
		r2, err := Open2(paths[name])
		if err != nil {
			t.Fatal(err)
		}
		defer r2.Close()
		narrow := 0
		for i, b := range r2.blocks {
			_, st, err := r2.blockPayload(i)
			if err != nil {
				t.Fatal(err)
			}
			if _, w := b.window(uint32(b.first), st); w <= 2 {
				narrow++
			}
		}
		nb := len(r2.blocks)
		_, w1 := window(0, r2.firstBelow, r2.firstAbove, nb)
		t.Logf("%-11s %8d records %5d blocks: %5.1f %% of block windows <= 2 records; level-1 window %d blocks",
			name, r2.NumRecords(), nb, 100*float64(narrow)/float64(nb), w1)
		if name == "uniform" && (narrow != nb || w1 != 2) {
			t.Fatalf("uniform image: %d of %d block windows <= 2 records, level-1 window %d; want all, and 2", narrow, nb, w1)
		}
	}
}
