package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Reader streams a journal's records from disk without materializing the
// file, which is what lets the external-merge compiler k-way merge
// hundreds of spill runs in bounded memory (DESIGN.md §3.9). It applies
// the same validation as Decode — CRC per frame, mandatory leading
// header, version check — but incrementally:
//
//   - a clean end of file returns io.EOF from Next;
//   - a torn tail (truncated frame, or a bad CRC on the final frame)
//     returns io.ErrUnexpectedEOF — the crash signature, recoverable;
//   - damage anywhere before the tail returns ErrCorrupt.
type Reader struct {
	f    *os.File
	br   *bufio.Reader
	hdr  Header
	size int64 // file size at open; distinguishes torn tails from damage
	off  int64 // offset of the next unread frame
	buf  []byte
	err  error // sticky
}

// readerBufBytes keeps per-run buffered-reader memory small: the merge
// phase holds one Reader per spill run, so this bounds merge memory at
// runs × readerBufBytes on top of the heads themselves.
const readerBufBytes = 8 << 10

// OpenReader opens a journal for streaming reads. The magic and header
// record are validated eagerly so a Reader always has a Header; record
// frames are read lazily by Next.
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r := &Reader{f: f, br: bufio.NewReaderSize(f, readerBufBytes), size: st.Size()}
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r.br, magic); err != nil || string(magic) != Magic {
		f.Close()
		return nil, ErrBadMagic
	}
	r.off = int64(len(Magic))
	k, payload, err := r.frame()
	if err != nil {
		f.Close()
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrNoHeader
		}
		return nil, err
	}
	if k != KindHeader {
		f.Close()
		return nil, fmt.Errorf("%w: first record has kind %d", ErrNoHeader, k)
	}
	hdr, err := DecodeHeader(payload)
	if err != nil {
		f.Close()
		return nil, err
	}
	if hdr.Version != Version {
		f.Close()
		return nil, fmt.Errorf("%w: journal version %d, decoder version %d",
			ErrBadVersion, hdr.Version, Version)
	}
	r.hdr = hdr
	return r, nil
}

// Header returns the journal's header record.
func (r *Reader) Header() Header { return r.hdr }

// Next returns the next record. The payload aliases an internal buffer
// valid only until the following Next call; callers that keep it must
// copy. io.EOF marks a clean end, io.ErrUnexpectedEOF a torn tail.
func (r *Reader) Next() (Record, error) {
	if r.err != nil {
		return Record{}, r.err
	}
	k, payload, err := r.frame()
	if err != nil {
		r.err = err
		return Record{}, err
	}
	return Record{Kind: k, Payload: payload}, nil
}

// frame reads one frame, mirroring Decode's torn-vs-corrupt judgement:
// only a frame that would end at (or past) EOF may be torn.
func (r *Reader) frame() (Kind, []byte, error) {
	var fh [FrameOverhead]byte
	n, err := io.ReadFull(r.br, fh[:])
	if err == io.EOF && n == 0 {
		return 0, nil, io.EOF
	}
	if err != nil {
		return 0, nil, io.ErrUnexpectedEOF
	}
	k := Kind(fh[0])
	plen := int(binary.LittleEndian.Uint32(fh[1:]))
	want := binary.LittleEndian.Uint32(fh[5:])
	end := r.off + FrameOverhead + int64(plen)
	if plen > maxPayload || end > r.size {
		// Garbage length bytes, or a payload running past EOF: a frame cut
		// mid-write. Streaming can hit this before EOF only on real
		// damage, but Decode classifies both as torn; match it.
		return 0, nil, io.ErrUnexpectedEOF
	}
	if cap(r.buf) < plen {
		r.buf = make([]byte, plen)
	}
	payload := r.buf[:plen]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return 0, nil, io.ErrUnexpectedEOF
	}
	if FrameCRC(k, payload) != want {
		if end == r.size {
			// Bad CRC on the very last frame: torn, not damaged.
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, r.off)
	}
	r.off = end
	return k, payload, nil
}

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }
