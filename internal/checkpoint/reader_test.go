package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// drain reads every record from a streaming Reader (copying the aliased
// payloads) and returns them with the terminal error.
func drain(r *Reader) ([]Record, error) {
	var recs []Record
	for {
		rec, err := r.Next()
		if err != nil {
			return recs, err
		}
		recs = append(recs, Record{Kind: rec.Kind, Payload: append([]byte(nil), rec.Payload...)})
	}
}

// TestReaderMatchesDecode: the streaming reader must agree with the
// batch decoder record for record on a clean journal.
func TestReaderMatchesDecode(t *testing.T) {
	path, _ := writeJournal(t, t.TempDir(), 9)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, want, torn, _, err := Decode(data)
	if err != nil || torn {
		t.Fatalf("decode: torn=%v err=%v", torn, err)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Header() != hdr {
		t.Fatalf("header %+v, decode saw %+v", r.Header(), hdr)
	}
	got, terminal := drain(r)
	if terminal != io.EOF {
		t.Fatalf("clean journal ended with %v, want io.EOF", terminal)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d records, decode saw %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d differs between reader and decoder", i)
		}
	}
	// The sticky terminal error must repeat.
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next returned %v", err)
	}
}

// TestReaderTruncationSweep cuts the journal at every byte length and
// requires the streaming reader to agree with Decode at each cut: same
// record prefix, and a torn-tail verdict (io.ErrUnexpectedEOF) wherever
// Decode says torn. No cut may stream wrong data or an unnamed error.
func TestReaderTruncationSweep(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeJournal(t, dir, 6)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(dir, "cut.ckpt")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		dHdr, dRecs, dTorn, _, dErr := Decode(data[:cut])
		r, oErr := OpenReader(cutPath)
		if dErr != nil {
			// The batch decoder rejects the cut outright (magic or header
			// destroyed); the streaming open must reject it too, with a
			// named error.
			if oErr == nil {
				r.Close()
				t.Fatalf("cut %d: decode rejected (%v) but OpenReader accepted", cut, dErr)
			}
			if !errors.Is(oErr, ErrBadMagic) && !errors.Is(oErr, ErrNoHeader) &&
				!errors.Is(oErr, ErrCorrupt) && !errors.Is(oErr, ErrBadVersion) {
				t.Fatalf("cut %d: unnamed open error %v", cut, oErr)
			}
			continue
		}
		if oErr != nil {
			t.Fatalf("cut %d: decode accepted but OpenReader rejected: %v", cut, oErr)
		}
		if r.Header() != dHdr {
			t.Fatalf("cut %d: header mismatch", cut)
		}
		got, terminal := drain(r)
		r.Close()
		if len(got) != len(dRecs) {
			t.Fatalf("cut %d: streamed %d records, decode saw %d", cut, len(got), len(dRecs))
		}
		for i := range got {
			if got[i].Kind != dRecs[i].Kind || !bytes.Equal(got[i].Payload, dRecs[i].Payload) {
				t.Fatalf("cut %d: record %d differs", cut, i)
			}
		}
		switch {
		case dTorn && terminal != io.ErrUnexpectedEOF:
			t.Fatalf("cut %d: decode says torn, reader ended with %v", cut, terminal)
		case !dTorn && terminal != io.EOF:
			t.Fatalf("cut %d: decode says clean, reader ended with %v", cut, terminal)
		}
	}
}

// TestReaderMidFileCorruption: a bit flip before the final frame is
// damage, not a torn tail — the reader must stream the intact prefix and
// then fail with ErrCorrupt, exactly as Decode does.
func TestReaderMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path, payloads := writeJournal(t, dir, 6)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte of the third record: offset = magic + header
	// frame + 2 records + this record's frame overhead.
	off := len(Magic) + FrameOverhead + 22 + len("realistic")
	for i := 0; i < 2; i++ {
		off += FrameOverhead + len(payloads[i])
	}
	off += FrameOverhead
	data[off] ^= 0x80
	badPath := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, _, dErr := Decode(data)
	if !errors.Is(dErr, ErrCorrupt) {
		t.Fatalf("decode: got %v, want ErrCorrupt", dErr)
	}
	r, err := OpenReader(badPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, terminal := drain(r)
	if !errors.Is(terminal, ErrCorrupt) {
		t.Fatalf("reader ended with %v, want ErrCorrupt", terminal)
	}
	if len(got) != 2 {
		t.Fatalf("streamed %d records before the damage, want 2", len(got))
	}
	for i := range got {
		if !bytes.Equal(got[i].Payload, payloads[i]) {
			t.Fatalf("intact record %d mangled", i)
		}
	}
	// Sticky: the corruption error repeats rather than resuming.
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("post-corruption Next returned %v", err)
	}
}

// TestReaderPayloadAliasing documents the contract: a payload is valid
// only until the following Next call, so keeping records requires a
// copy. The test asserts the buffer IS reused (the reason the contract
// exists), guarding against an accidental always-copy regression that
// would reintroduce per-frame allocation in the merge path.
func TestReaderPayloadAliasing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ckpt")
	j, err := Create(path, testHeader(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Equal-length payloads so the second read reuses the first's buffer.
	if err := j.Append(KindRow, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(KindRow, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	first, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	alias := first.Payload
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if string(alias) != "bbbb" {
		t.Fatalf("payload buffer not reused (got %q); drop this test if Next is made copying", alias)
	}
}
