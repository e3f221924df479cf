package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"geoloc/internal/ipaddr"
)

// openMappedBytes writes an in-memory image to a file and opens it with
// Open2 — the corruption tests work on byte images, a mapping needs a
// file.
func openMappedBytes(t *testing.T, img []byte) (*Reader2, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "img.geodset2")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open2(path)
}

// TestOpenMappedOracle: the reader over a mapping, the reader over the
// same bytes on the heap, and a linear scan of the source records agree
// on every probe — present prefixes, absent neighbours, and the key-space
// extremes — and Open2 actually mapped (on platforms that support it).
func TestOpenMappedOracle(t *testing.T) {
	ds := compiled(t)
	for _, blockSize := range []int{1, 4, len(ds.Records) + 7} {
		t.Run(fmt.Sprintf("block=%d", blockSize), func(t *testing.T) {
			path := writeV2(t, ds, blockSize)
			m, err := Open2(path)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if mmapSupported && !m.Mapped() {
				t.Fatal("mmap is supported here but Open2 fell back to the heap")
			}
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := NewReader2(img)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			if r2.Mapped() {
				t.Fatal("a reader over caller-supplied bytes reports a mapping")
			}

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
				heapR, heapOK, err := r2.Lookup(p)
				if err != nil {
					t.Fatalf("heap lookup %s: %v", p, err)
				}
				mapR, mapOK, err := m.Lookup(p)
				if err != nil {
					t.Fatalf("mapped lookup %s: %v", p, err)
				}
				if mapOK != wantOK || mapR != wantR || heapOK != wantOK || heapR != wantR {
					t.Fatalf("lookup %s: mapped (%+v, %v), heap (%+v, %v), linear scan says (%+v, %v)",
						p, mapR, mapOK, heapR, heapOK, wantR, wantOK)
				}
			}

			// The scan path agrees too.
			i := 0
			if err := m.All(func(r Record) error {
				if r != ds.Records[i] {
					return fmt.Errorf("record %d: %+v want %+v", i, r, ds.Records[i])
				}
				i++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if i != len(ds.Records) {
				t.Fatalf("mapped scan stopped at %d of %d", i, len(ds.Records))
			}
		})
	}
}

// TestOpenMappedErrorTaxonomy: a mapped reader must reject or surface
// every kind of damage with the package's named errors, never a panic —
// eager damage (footer, index, magic, truncation) at open, lazily
// validated damage (inside a block) on the first touch through the
// mapping.
func TestOpenMappedErrorTaxonomy(t *testing.T) {
	ds := compiled(t)
	path := writeV2(t, ds, 4)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[0] ^= 0x01
		if _, err := openMappedBytes(t, bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})

	t.Run("truncation-sweep", func(t *testing.T) {
		// Same contract as over heap bytes: a cut anywhere fails at open
		// with a named error. Sampled cuts plus the structural
		// boundaries keep the file-backed sweep fast.
		cuts := []int{0, 1, len(Magic2), len(Magic2) + frameOverhead,
			len(img) - footerLen, len(img) - footerLen + 16, len(img) - 1}
		for c := 7; c < len(img); c += 13 {
			cuts = append(cuts, c)
		}
		for _, cut := range cuts {
			_, err := openMappedBytes(t, img[:cut])
			if err == nil {
				t.Fatalf("cut %d: truncated file mapped cleanly", cut)
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) &&
				!errors.Is(err, ErrBadMagic) {
				t.Fatalf("cut %d: unnamed error %v", cut, err)
			}
		}
	})

	t.Run("footer-crc", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[len(bad)-footerLen] ^= 0x01
		if _, err := openMappedBytes(t, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("block-crc-first-touch", func(t *testing.T) {
		// Damage inside a block is invisible to open-time validation; the
		// first lookup that touches the block through the mapping must
		// report ErrCorrupt — and keep reporting it (the verified bit is
		// only ever set after a clean check).
		hdrPlen := int(binary.LittleEndian.Uint32(img[len(Magic2)+1:]))
		blockOff := len(Magic2) + frameOverhead + hdrPlen
		bad := append([]byte(nil), img...)
		bad[blockOff+frameOverhead+2+8] ^= 0x40
		m, err := openMappedBytes(t, bad)
		if err != nil {
			t.Fatalf("open rejected lazily-validated damage: %v", err)
		}
		defer m.Close()
		if mmapSupported && !m.Mapped() {
			t.Fatal("expected a mapped reader")
		}
		for try := 0; try < 2; try++ {
			if _, _, err := m.Lookup(ds.Records[0].Prefix); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("try %d: mapped lookup into torn block: got %v, want ErrCorrupt", try, err)
			}
		}
		if err := m.All(func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mapped scan over torn block: got %v, want ErrCorrupt", err)
		}
		// Undamaged blocks still answer.
		last := ds.Records[len(ds.Records)-1]
		if got, ok, err := m.Lookup(last.Prefix); err != nil || !ok || got != last {
			t.Fatalf("undamaged block after torn block: got (%+v, %v, %v)", got, ok, err)
		}
	})

	t.Run("reordered-block-first-touch", func(t *testing.T) {
		// A re-sealed CRC cannot mask a sort violation.
		hdrPlen := int(binary.LittleEndian.Uint32(img[len(Magic2)+1:]))
		blockOff := len(Magic2) + frameOverhead + hdrPlen
		bad := append([]byte(nil), img...)
		r0 := blockOff + frameOverhead + 2
		tmpRec := make([]byte, recordPayloadLen)
		copy(tmpRec, bad[r0:r0+recordPayloadLen])
		copy(bad[r0:r0+recordPayloadLen], bad[r0+recordPayloadLen:r0+2*recordPayloadLen])
		copy(bad[r0+recordPayloadLen:r0+2*recordPayloadLen], tmpRec)
		patchFrameCRC(bad, blockOff)
		m, err := openMappedBytes(t, bad)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open: got %v, want ErrCorrupt", err)
			}
			return
		}
		defer m.Close()
		if _, _, err := m.Lookup(ds.Records[0].Prefix); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mapped lookup into reordered block: got %v, want ErrCorrupt", err)
		}
	})

	t.Run("use-after-close", func(t *testing.T) {
		// Once the last reference is gone the image is gone (unmapped, for
		// a mapping): every read must answer ErrClosed, not touch it.
		mapped, err := Open2(path)
		if err != nil {
			t.Fatal(err)
		}
		heap, err := NewReader2(img)
		if err != nil {
			t.Fatal(err)
		}
		for name, r2 := range map[string]*Reader2{"mapped": mapped, "heap": heap} {
			r2.Close()
			if _, _, err := r2.Lookup(ds.Records[0].Prefix); !errors.Is(err, ErrClosed) {
				t.Fatalf("%s Lookup after Close: got %v, want ErrClosed", name, err)
			}
			if _, _, err := r2.Find(ds.Records[0].Prefix.Addr(7)); !errors.Is(err, ErrClosed) {
				t.Fatalf("%s Find after Close: got %v, want ErrClosed", name, err)
			}
			if err := r2.All(func(Record) error { return nil }); !errors.Is(err, ErrClosed) {
				t.Fatalf("%s All after Close: got %v, want ErrClosed", name, err)
			}
			out := make([]Answer, batchLanes+1)
			r2.FindBatch(make([]ipaddr.Addr, len(out)), out)
			for i, a := range out {
				if !errors.Is(a.Err, ErrClosed) || a.Found {
					t.Fatalf("%s FindBatch after Close: item %d got %+v, want ErrClosed", name, i, a)
				}
			}
		}
	})
}

// TestRewriteUnderLiveMapping pins what every served file relies on:
// writers commit by rename, so replacing the artifact at a path leaves a
// live MAP_SHARED mapping on the old inode — intact, no fault — while a
// fresh open sees the new file. (Writing over the file in place would
// instead change or truncate the pages under the mapping: SIGBUS, which no
// ErrCorrupt path can catch. Nothing in this repository does that.)
func TestRewriteUnderLiveMapping(t *testing.T) {
	before := compiled(t)
	after := Compile(tinyCampaign(t), Options{}) // no unsanitized records: a different artifact
	path := filepath.Join(t.TempDir(), "served.geodset2")
	if err := before.Write(path); err != nil {
		t.Fatal(err)
	}
	m, err := Open2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// No block has been touched yet: every page is faulted in after the
	// rewrite, from the old inode.
	if err := after.Write(path); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, want := range before.Records {
		if got, ok, err := m.Lookup(want.Prefix); err != nil || !ok || got != want {
			t.Fatalf("old reader, lookup %s after the rewrite: (%+v, %v, %v)", want.Prefix, got, ok, err)
		}
		if _, ok := after.Find(want.Prefix.Addr(1)); !ok {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("fixture: the rewrite dropped no record, old and new readers cannot be told apart")
	}
	fresh, err := Open2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.NumRecords() != len(after.Records) {
		t.Fatalf("fresh open sees %d records, the rewrite stored %d", fresh.NumRecords(), len(after.Records))
	}
	for _, want := range after.Records {
		if got, ok, err := fresh.Lookup(want.Prefix); err != nil || !ok || got != want {
			t.Fatalf("fresh reader, lookup %s: (%+v, %v, %v)", want.Prefix, got, ok, err)
		}
	}
}

// TestMappedPinLifecycle: the generation-pinned close protocol. A pinned
// reader survives Close (the hot-swap case: in-flight requests still
// hold the retired generation); the last Unpin releases it; a released
// reader can never be re-pinned; Close is idempotent.
func TestMappedPinLifecycle(t *testing.T) {
	ds := compiled(t)
	m, err := Open2(writeV2(t, ds, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !m.TryPin() {
		t.Fatal("TryPin on a live reader failed")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The owner reference is gone but our pin keeps the mapping alive.
	want := ds.Records[0]
	if got, ok, err := m.Lookup(want.Prefix); err != nil || !ok || got != want {
		t.Fatalf("lookup on pinned post-Close reader: (%+v, %v, %v)", got, ok, err)
	}
	if err := m.Close(); err != nil { // idempotent: must not steal our pin
		t.Fatal(err)
	}
	if got, ok, err := m.Lookup(want.Prefix); err != nil || !ok || got != want {
		t.Fatalf("lookup after double Close: (%+v, %v, %v)", got, ok, err)
	}
	m.Unpin()
	if m.TryPin() {
		t.Fatal("TryPin resurrected a fully released reader")
	}
}

// TestMappedConcurrentFirstTouch: many goroutines race the first-touch
// verification of the same blocks; everyone must see consistent answers
// (run under -race in CI).
func TestMappedConcurrentFirstTouch(t *testing.T) {
	ds := compiled(t)
	m, err := Open2(writeV2(t, ds, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for i := (g * 7) % len(ds.Records); i < len(ds.Records); i++ {
					want := ds.Records[i]
					got, ok, err := m.Lookup(want.Prefix)
					if err != nil || !ok || got != want {
						errs <- fmt.Errorf("goroutine %d: lookup %s: (%+v, %v, %v)", g, want.Prefix, got, ok, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMappedLookupAllocs gates the mapped hot path: after first touch, a
// lookup through the mapping — one, or a batch in lockstep — is
// allocation-free.
func TestMappedLookupAllocs(t *testing.T) {
	ds := compiled(t)
	m, err := Open2(writeV2(t, ds, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Mapped() {
		t.Skip("mmap unsupported on this platform")
	}
	hit := ds.Records[len(ds.Records)/2].Prefix
	miss := hit + 1
	if _, _, err := m.Lookup(hit); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := m.Lookup(hit); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Lookup(miss); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("mapped Lookup allocates %.1f times per hit+miss pair, want 0", n)
	}
	// The lanes too, across more than one group of them.
	batch := make([]ipaddr.Addr, 2*batchLanes+1)
	for i := range batch {
		batch[i] = (hit + ipaddr.Prefix24(i%2)).Addr(byte(i))
	}
	out := make([]Answer, len(batch))
	if n := testing.AllocsPerRun(200, func() { m.FindBatch(batch, out) }); n != 0 {
		t.Fatalf("mapped FindBatch allocates %.1f times per batch, want 0", n)
	}
	for i, a := range out {
		if r, ok, err := m.Find(batch[i]); !sameAnswer(a, r, ok, err) {
			t.Fatalf("FindBatch item %d: %+v, Find says (%+v, %v, %v)", i, a, r, ok, err)
		}
	}
}
