package checkpoint

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"testing"
)

// FuzzDecoder throws arbitrary bytes at Decode and checks its safety
// contract: no panics, no allocations driven by unvalidated lengths, and
// every failure is one of the package's named errors. When Decode
// succeeds, the reported good prefix must itself re-decode to the same
// records without a tear — the fixed point a resuming writer relies on
// when it truncates to goodLen. Every input is also written to a file and
// streamed through OpenReader + Next, which must agree with Decode
// (readerMatchesDecode), and FrameCRC must equal crc32 of the input read
// as kind‖payload.
//
// Run locally with:
//
//	go test -fuzz FuzzDecoder -fuzztime 30s ./internal/checkpoint
func FuzzDecoder(f *testing.F) {
	// Seed corpus: a well-formed journal, its truncations, and light
	// mutations, so the fuzzer starts at the format's interesting edges.
	j := encodeSeedJournal()
	f.Add(j)
	f.Add(j[:len(Magic)])
	f.Add(j[:len(Magic)+3])
	f.Add(j[:len(j)-1])
	f.Add(j[:len(j)/2])
	f.Add([]byte{})
	f.Add([]byte("GEOCKPT1"))
	f.Add([]byte("GEOCKPT2junk"))
	mut := append([]byte(nil), j...)
	mut[len(Magic)+2] ^= 0x40
	f.Add(mut)

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 && FrameCRC(Kind(data[0]), data[1:]) != crc32.ChecksumIEEE(data) {
			t.Fatalf("FrameCRC(%d, …) is not crc32(kind‖payload)", data[0])
		}
		hdr, recs, torn, goodLen, err := Decode(data)
		readerMatchesDecode(t, dir, data, hdr, recs, torn, err)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) &&
				!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNoHeader) {
				t.Fatalf("unnamed error: %v", err)
			}
			return
		}
		if goodLen < int64(len(Magic)) || goodLen > int64(len(data)) {
			t.Fatalf("goodLen %d outside [magic, len]", goodLen)
		}
		if hdr.Version != Version {
			t.Fatalf("accepted version %d", hdr.Version)
		}
		// The good prefix must be a fixed point: decoding it again yields
		// the same records and no tear.
		hdr2, recs2, torn2, goodLen2, err2 := Decode(data[:goodLen])
		if err2 != nil {
			t.Fatalf("good prefix failed to re-decode: %v", err2)
		}
		if torn2 {
			t.Fatal("good prefix reports a torn tail")
		}
		if goodLen2 != goodLen {
			t.Fatalf("good prefix shrank on re-decode: %d -> %d", goodLen, goodLen2)
		}
		if hdr2 != hdr {
			t.Fatalf("header changed on re-decode: %+v vs %+v", hdr, hdr2)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("record count changed on re-decode: %d vs %d", len(recs), len(recs2))
		}
		for i := range recs {
			if recs[i].Kind != recs2[i].Kind || !bytes.Equal(recs[i].Payload, recs2[i].Payload) {
				t.Fatalf("record %d changed on re-decode", i)
			}
		}
		if !torn && goodLen != int64(len(data)) {
			t.Fatalf("no tear reported but goodLen %d < len %d", goodLen, len(data))
		}
	})
}

// encodeSeedJournal builds a small valid journal image in memory.
func encodeSeedJournal() []byte {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.Write(AppendFrame(nil, KindHeader, EncodeHeader(Header{
		Version: Version, ConfigHash: 0xABCD, Seed: 7, Profile: "none",
	})))
	buf.Write(AppendFrame(nil, KindRow, []byte("row-one")))
	buf.Write(AppendFrame(nil, KindPhase, []byte("phase-digest-bytes-here-32-long!")))
	buf.Write(AppendFrame(nil, KindReport, []byte("\x05\x00fig5areport text")))
	return buf.Bytes()
}

// readerMatchesDecode writes data to a file in dir and holds the streaming
// Reader to what Decode made of the same bytes: OpenReader fails with
// Decode's named error when the magic or the header is bad; otherwise it
// has Decode's header and Next yields Decode's records, then io.EOF when
// Decode saw no tear, io.ErrUnexpectedEOF when it dropped one, and, when
// Decode failed past the header, the same named error after exactly the
// records that precede the bad frame.
func readerMatchesDecode(t *testing.T, dir string, data []byte, hdr Header, recs []Record, torn bool, decErr error) {
	t.Helper()
	f, err := os.CreateTemp(dir, "fuzz-*.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	path := f.Name()
	defer os.Remove(path)
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(path)
	if err != nil {
		if decErr == nil || !sameNamedError(err, decErr) {
			t.Fatalf("OpenReader: %v, Decode: %v", err, decErr)
		}
		return
	}
	defer r.Close()
	got, end := drain(r)
	if decErr != nil {
		// Decode failed past the header, so the Reader must stop on the
		// same named error, after the records that precede the bad frame:
		// exactly what Decode makes of the bytes before it.
		if !sameNamedError(end, decErr) {
			t.Fatalf("Reader ended with %v, Decode failed with %v", end, decErr)
		}
		hdr, recs, torn, _, err = Decode(data[:r.off])
		if err != nil || torn {
			t.Fatalf("bytes before the Reader's bad frame: torn=%v err=%v", torn, err)
		}
	} else {
		want := io.EOF
		if torn {
			want = io.ErrUnexpectedEOF
		}
		if end != want {
			t.Fatalf("Reader ended with %v, want %v (Decode torn=%v)", end, want, torn)
		}
	}
	if r.Header() != hdr {
		t.Fatalf("Reader header %+v, Decode %+v", r.Header(), hdr)
	}
	if len(got) != len(recs) {
		t.Fatalf("Reader yielded %d records, Decode %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Kind != recs[i].Kind || !bytes.Equal(got[i].Payload, recs[i].Payload) {
			t.Fatalf("record %d differs between Reader and Decode", i)
		}
	}
}

// sameNamedError reports whether a and b are the same one of the
// package's named errors.
func sameNamedError(a, b error) bool {
	for _, e := range []error{ErrBadMagic, ErrBadVersion, ErrCorrupt, ErrNoHeader} {
		if errors.Is(a, e) && errors.Is(b, e) {
			return true
		}
	}
	return false
}
