package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// testHeader is the campaign identity used throughout the tests.
func testHeader() Header {
	return Header{ConfigHash: 0xDEADBEEFCAFE, Seed: 42, Profile: "realistic"}
}

// writeJournal creates a journal with n row records of varying sizes and
// returns its path plus the payloads written.
func writeJournal(t *testing.T, dir string, n int) (string, [][]byte) {
	t.Helper()
	path := filepath.Join(dir, "j.ckpt")
	j, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for i := 0; i < n; i++ {
		p := bytes.Repeat([]byte{byte(i + 1)}, 5+7*i)
		payloads = append(payloads, p)
		if err := j.Append(KindRow, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path, payloads
}

func TestCreateDecodeRoundTrip(t *testing.T) {
	path, payloads := writeJournal(t, t.TempDir(), 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, recs, torn, goodLen, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("clean journal reported torn")
	}
	if goodLen != int64(len(data)) {
		t.Fatalf("goodLen %d, file %d", goodLen, len(data))
	}
	if hdr.ConfigHash != testHeader().ConfigHash || hdr.Seed != 42 || hdr.Profile != "realistic" || hdr.Version != Version {
		t.Fatalf("header round-trip: %+v", hdr)
	}
	if len(recs) != len(payloads) {
		t.Fatalf("decoded %d records, wrote %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		if r.Kind != KindRow || !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestKillPointSweep is the kill-point harness the issue asks for: the
// journal is truncated at EVERY byte length — every record boundary and
// every mid-record point — and each truncation must either resume with a
// prefix of the original records (torn tail dropped) or be rejected with a
// named error. No truncation may decode to wrong data, and Open after a
// torn tail must leave an appendable journal.
func TestKillPointSweep(t *testing.T) {
	dir := t.TempDir()
	path, payloads := writeJournal(t, dir, 5)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries, for classifying each cut.
	_, fullRecs, _, _, err := Decode(full)
	if err != nil || len(fullRecs) != 5 {
		t.Fatalf("baseline decode: recs=%d err=%v", len(fullRecs), err)
	}

	for cut := 0; cut <= len(full); cut++ {
		img := full[:cut]
		hdr, recs, torn, goodLen, err := Decode(img)
		switch {
		case cut < len(Magic):
			if !errors.Is(err, ErrBadMagic) {
				t.Fatalf("cut %d: err %v, want ErrBadMagic", cut, err)
			}
			continue
		case err != nil:
			// The only acceptable error past the magic is a header that
			// never fully landed.
			if !errors.Is(err, ErrNoHeader) {
				t.Fatalf("cut %d: unexpected error %v", cut, err)
			}
			continue
		}
		// Decoded: must be an exact prefix of the original records.
		if hdr.Seed != 42 {
			t.Fatalf("cut %d: header corrupted silently", cut)
		}
		if goodLen > int64(cut) {
			t.Fatalf("cut %d: goodLen %d past EOF", cut, goodLen)
		}
		if cut < len(full) && !torn && int(goodLen) != cut {
			t.Fatalf("cut %d: not torn but goodLen %d != cut", cut, goodLen)
		}
		for i, r := range recs {
			if !bytes.Equal(r.Payload, payloads[i]) {
				t.Fatalf("cut %d: record %d decoded to wrong payload", cut, i)
			}
		}

		// Resume through Open at this kill point: write the truncated image
		// to its own file, reopen, append a fresh record, and verify the
		// result is (prefix + new record) with no tear.
		p2 := filepath.Join(dir, fmt.Sprintf("cut%d.ckpt", cut))
		if err := os.WriteFile(p2, img, 0o644); err != nil {
			t.Fatal(err)
		}
		j, restored, err := Open(p2, testHeader())
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if len(restored) != len(recs) {
			t.Fatalf("cut %d: Open restored %d records, Decode saw %d", cut, len(restored), len(recs))
		}
		if err := j.Append(KindRow, []byte("appended-after-resume")); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		data2, err := os.ReadFile(p2)
		if err != nil {
			t.Fatal(err)
		}
		_, recs2, torn2, _, err := Decode(data2)
		if err != nil || torn2 {
			t.Fatalf("cut %d: journal after resume+append: torn=%v err=%v", cut, torn2, err)
		}
		if len(recs2) != len(recs)+1 {
			t.Fatalf("cut %d: %d records after append, want %d", cut, len(recs2), len(recs)+1)
		}
		if string(recs2[len(recs2)-1].Payload) != "appended-after-resume" {
			t.Fatalf("cut %d: appended record lost", cut)
		}
	}
}

// TestMidFileCorruption flips a byte at every offset before the final
// frame. Each flip must surface as a named error (usually ErrCorrupt) or,
// when the flip hits a length field and mimics a torn tail, decode to a
// strict prefix of the true records — never to wrong data.
func TestMidFileCorruption(t *testing.T) {
	path, payloads := writeJournal(t, t.TempDir(), 3)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Only corrupt before the final frame: final-frame corruption is
	// legitimately a torn tail by design.
	lastFrame := lastFrameOffset(t, full)
	for off := len(Magic); off < lastFrame; off++ {
		img := append([]byte(nil), full...)
		img[off] ^= 0xFF
		hdr, recs, torn, _, err := Decode(img)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) &&
				!errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrNoHeader) {
				t.Fatalf("flip at %d: unnamed error %v", off, err)
			}
			continue
		}
		// Decoded anyway: only acceptable if the flip mimicked a torn tail
		// and everything returned is a verbatim prefix of the true records.
		if !torn {
			t.Fatalf("flip at %d: decoded cleanly with no tear", off)
		}
		if hdr.Seed != 42 || hdr.Profile != "realistic" {
			t.Fatalf("flip at %d: header silently altered", off)
		}
		if len(recs) >= len(payloads) {
			t.Fatalf("flip at %d: torn decode returned %d records, want a strict prefix of %d", off, len(recs), len(payloads))
		}
		for i, r := range recs {
			if !bytes.Equal(r.Payload, payloads[i]) {
				t.Fatalf("flip at %d: record %d decoded to wrong payload", off, i)
			}
		}
	}
}

// lastFrameOffset walks the frames and returns the offset of the final one.
func lastFrameOffset(t *testing.T, data []byte) int {
	t.Helper()
	off := len(Magic)
	last := off
	for off < len(data) {
		plen := int(uint32(data[off+1]) | uint32(data[off+2])<<8 | uint32(data[off+3])<<16 | uint32(data[off+4])<<24)
		last = off
		off += frameOverhead + plen
	}
	return last
}

func TestOpenRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeJournal(t, dir, 2)
	for _, want := range []Header{
		{ConfigHash: 0x1111, Seed: 42, Profile: "realistic"},        // wrong hash
		{ConfigHash: 0xDEADBEEFCAFE, Seed: 7, Profile: "realistic"}, // wrong seed
		{ConfigHash: 0xDEADBEEFCAFE, Seed: 42, Profile: "hostile"},  // wrong profile
	} {
		if _, _, err := Open(path, want); !errors.Is(err, ErrMismatch) {
			t.Fatalf("Open with %+v: err %v, want ErrMismatch", want, err)
		}
	}
	// And the matching header still opens.
	j, recs, err := Open(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("restored %d records", len(recs))
	}
	j.Close()
}

func TestOpenMissingFileStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing.ckpt")
	j, recs, err := Open(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal restored %d records", len(recs))
	}
	if err := j.Append(KindRow, []byte("x")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, _ := os.ReadFile(path)
	if _, recs, _, _, err := Decode(data); err != nil || len(recs) != 1 {
		t.Fatalf("fresh journal unreadable: recs=%d err=%v", len(recs), err)
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.ckpt")
	hdr := testHeader()
	hdr.Version = Version + 1
	// Create force-sets Version, so build the file by hand.
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.Write(frame(KindHeader, encodeHeader(hdr)))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if _, _, _, _, err := Decode(data); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err %v, want ErrBadVersion", err)
	}
}

func TestAppendEverySyncBatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ckpt")
	j, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 10; i++ {
		if err := j.AppendEvery(KindRow, []byte{byte(i)}, 4); err != nil {
			t.Fatal(err)
		}
	}
	// Correctness of batching is about durability timing, not content; here
	// we just assert the journal stays decodable with all 10 rows.
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if _, recs, _, _, err := Decode(data); err != nil || len(recs) != 10 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}

func TestAppendRejectsOversizedPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.ckpt")
	j, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(KindRow, make([]byte, maxPayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}
