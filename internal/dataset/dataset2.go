// GEODSET2: the dataset artifact format (DESIGN.md §3.9). Records are
// fixed-size payloads grouped into sorted blocks, followed by a per-block
// key index and a fixed-size footer, every frame CRC-protected:
//
//	magic "GEODSET2" (8 bytes)
//	header frame      kind 0 | payloadLen u32 | crc32 u32 | header payload (Version=2)
//	block frame*      kind 2 | ...           | count u16 | count × record payload
//	index frame       kind 3 | ...           | per block: first u32 | last u32 | count u32 | off u64 | plen u32
//	footer (28 bytes) indexOff u64 | records u64 | crc32(indexOff‖records) u32 | "GDS2TAIL"
//
// A reader maps the file, validates footer, index and header, and
// thereafter touches only the blocks a lookup lands in — O(blocks-touched)
// resident pages at any artifact size. The file is written atomically
// (tmp + fsync + rename), so truncation is damage, not a crash tail.
package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"geoloc/internal/ipaddr"
)

// Magic2 identifies a dataset artifact.
const Magic2 = "GEODSET2"

// DefaultBlockSize is the records-per-block default: 256 records ≈ 7.7 KB
// per block frame, a few disk pages.
const DefaultBlockSize = 256

// maxBlockRecords bounds a block so corrupt counts cannot drive huge
// allocations; the writer enforces it, the reader rejects beyond it.
const maxBlockRecords = 4096

// maxIndexPayload bounds the index frame. 24 bytes per block covers a
// full-IPv4 artifact (2^24 /24s at minimum block size) with room over.
const maxIndexPayload = 64 << 20

// footerLen is the fixed footer: indexOff u64 | records u64 | crc32 u32 |
// tail magic (8).
const footerLen = 28

// tailMagic ends every GEODSET2 file; its absence is the fastest
// possible "not a (complete) GEODSET2" signal.
const tailMagic = "GDS2TAIL"

// indexEntryLen is the per-block index entry size.
const indexEntryLen = 4 + 4 + 4 + 8 + 4

// blockMeta is one decoded index entry.
type blockMeta struct {
	first, last ipaddr.Prefix24
	count       uint32
	off         int64
	plen        uint32
}

// encoder writes a GEODSET2 image — magic, header frame, block frames,
// index frame, footer — into any io.Writer. It is the one place the format
// is produced: Writer2 points it at a file, Dataset.Encode at a byte
// buffer. It holds one block payload plus the (small) index, so encoding
// a full-IPv4-scale artifact is O(block). Records are encoded as given;
// ordering is Writer2.Add's check on the way in and the reader's on the
// way out.
type encoder struct {
	w           io.Writer
	blockSize   int
	fh          [frameOverhead]byte // frame header scratch
	block       []byte              // the open block's payload: count u16 | records
	n           int                 // records in the open block
	first, last ipaddr.Prefix24     // the open block's first key; the last key added
	index       []blockMeta
	off         int64
	records     uint64
}

// newEncoder writes the magic and the header frame. blockSize must be in
// [1, maxBlockRecords].
func newEncoder(w io.Writer, hdr Header, blockSize int) (*encoder, error) {
	hdr.Version = Version
	e := &encoder{w: w, blockSize: blockSize, block: make([]byte, 2, 2+blockSize*recordPayloadLen)}
	if _, err := io.WriteString(w, Magic2); err != nil {
		return nil, err
	}
	e.off = int64(len(Magic2))
	return e, e.writeFrame(kindHeader, encodeHeader(hdr))
}

// writeFrame writes one frame (identical layout to checkpoint frames).
func (e *encoder) writeFrame(kind byte, payload []byte) error {
	e.fh[0] = kind
	binary.LittleEndian.PutUint32(e.fh[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.fh[5:], crc32.Update(crc32.ChecksumIEEE(e.fh[:1]), crc32.IEEETable, payload))
	if _, err := e.w.Write(e.fh[:]); err != nil {
		return err
	}
	_, err := e.w.Write(payload)
	e.off += int64(frameOverhead + len(payload))
	return err
}

func (e *encoder) add(r Record) error {
	if e.n == 0 {
		e.first = r.Prefix
	}
	e.last = r.Prefix
	e.block = appendRecord(e.block, r)
	e.n++
	e.records++
	if e.n == e.blockSize {
		return e.flushBlock()
	}
	return nil
}

func (e *encoder) flushBlock() error {
	if e.n == 0 {
		return nil
	}
	binary.LittleEndian.PutUint16(e.block, uint16(e.n))
	e.index = append(e.index, blockMeta{
		first: e.first,
		last:  e.last,
		count: uint32(e.n),
		off:   e.off,
		plen:  uint32(len(e.block)),
	})
	err := e.writeFrame(kindBlock, e.block)
	e.block, e.n = e.block[:2], 0
	return err
}

// finish flushes the last block and writes the index frame and the
// footer. Returns the image size.
func (e *encoder) finish() (int64, error) {
	if err := e.flushBlock(); err != nil {
		return 0, err
	}
	indexOff := e.off
	payload := make([]byte, 0, len(e.index)*indexEntryLen)
	for _, b := range e.index {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(b.first))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(b.last))
		payload = binary.LittleEndian.AppendUint32(payload, b.count)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(b.off))
		payload = binary.LittleEndian.AppendUint32(payload, b.plen)
	}
	if err := e.writeFrame(kindIndex, payload); err != nil {
		return 0, err
	}
	footer := make([]byte, 0, footerLen)
	footer = binary.LittleEndian.AppendUint64(footer, uint64(indexOff))
	footer = binary.LittleEndian.AppendUint64(footer, e.records)
	footer = binary.LittleEndian.AppendUint32(footer, crc32.ChecksumIEEE(footer[:16]))
	footer = append(footer, tailMagic...)
	if _, err := e.w.Write(footer); err != nil {
		return 0, err
	}
	e.off += footerLen
	meters.encodes.Inc()
	return e.off, nil
}

// Writer2 streams records into a GEODSET2 file in ascending prefix
// order. The file appears atomically at path on Finish. Abort and a
// failed Finish remove the temporary file; a crash leaves at most a .tmp
// beside path, never a partial artifact at it.
type Writer2 struct {
	enc       *encoder
	path, tmp string
	f         *os.File
	bw        *bufio.Writer
	finished  bool
}

// NewWriter2 starts a GEODSET2 artifact at path. blockSize <= 0 means
// DefaultBlockSize; larger than maxBlockRecords is rejected.
func NewWriter2(path string, hdr Header, blockSize int) (*Writer2, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize > maxBlockRecords {
		return nil, fmt.Errorf("dataset: block size %d exceeds limit %d", blockSize, maxBlockRecords)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer2{path: path, tmp: tmp, f: f, bw: bufio.NewWriterSize(f, 64<<10)}
	if w.enc, err = newEncoder(w.bw, hdr, blockSize); err != nil {
		w.Abort()
		return nil, err
	}
	return w, nil
}

// Add appends one record; prefixes must be strictly ascending.
func (w *Writer2) Add(r Record) error {
	if w.enc.records > 0 && r.Prefix <= w.enc.last {
		return fmt.Errorf("dataset: records out of order (%s after %s)", r.Prefix, w.enc.last)
	}
	return w.enc.add(r)
}

// Finish completes the image and commits it — the package's one commit:
// flush, fsync, close, rename into place, sync the directory. Returns the
// final size. Any failure removes the temporary file and leaves path as
// it was.
func (w *Writer2) Finish() (int64, error) {
	size, err := w.enc.finish()
	if err == nil {
		err = w.bw.Flush()
	}
	if err == nil {
		err = w.f.Sync()
	}
	if err == nil {
		err = w.f.Close()
	}
	if err == nil {
		err = os.Rename(w.tmp, w.path)
	}
	if err != nil {
		w.Abort()
		return 0, err
	}
	w.finished = true
	if dir, err := os.Open(filepath.Dir(w.path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return size, nil
}

// Abort discards the partial file. Safe after Finish (no-op).
func (w *Writer2) Abort() {
	if w.finished {
		return
	}
	w.finished = true
	w.f.Close() // a second Close after a failed Finish is harmless
	os.Remove(w.tmp)
}

// NumBlocks reports how many blocks have been flushed so far.
func (w *Writer2) NumBlocks() int { return len(w.enc.index) }

// Reader2 serves lookups out of a GEODSET2 artifact image held as one
// byte slice: a read-only mapping of the file where the platform and
// filesystem allow it (Open2), the bytes on the heap otherwise
// (NewReader2, and Open2's fallback). Either way there is one read path:
// a lookup binary-searches the block index, slices the block's payload
// out of the image and binary-searches the fixed-size records in place —
// no copies, no lock, no cache; for a mapping the page cache is the
// cache. Each block's CRC and sort invariants are verified once, on
// first touch, and remembered in a per-block atomic bitmap. Safe for
// concurrent use.
//
// Lifecycle: a reader is born with one owner reference; Close drops it.
// In-flight requests that must outlive a hot-swap pin the reader
// (TryPin/Unpin); the image is released only when the last reference
// drops, so a swapped-out mapping stays valid until the last pinned
// request drains — generation-pinned munmap. A reader used after its
// last reference dropped answers ErrClosed.
type Reader2 struct {
	data    []byte // the whole file image
	mapped  bool   // data is an mmap to unmap, not heap bytes
	hdr     Header
	blocks  []blockMeta
	first   []uint32 // blocks[i].first, packed: the level-1 search array (findbatch.go)
	records int

	// verified is the per-block verified-on-first-touch bitmap.
	verified []atomic.Uint32

	// refs counts the owner reference plus every in-flight pin; closed
	// makes Close idempotent.
	refs   atomic.Int64
	closed atomic.Bool
}

// Open2 opens a GEODSET2 artifact file: mapped read-only where mmapFile
// succeeds, read into memory where it does not (a platform without mmap,
// a filesystem that refuses the map). Mapped says which.
func Open2(path string) (*Reader2, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// Neither backing needs the descriptor once the image is in hand.
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, err := mmapFile(f, st.Size())
	mapped := err == nil
	if !mapped {
		data = make([]byte, st.Size())
		if _, err := io.ReadFull(f, data); err != nil {
			return nil, err
		}
	}
	d, err := NewReader2(data)
	if err != nil {
		if mapped {
			munmapFile(data)
		}
		meters.badLoads.Inc()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	d.mapped = mapped
	return d, nil
}

// OpenMapped is Open2.
//
// Deprecated: Open2 maps wherever mapping works; there is no second
// opener to choose. Kept for one release because benchmark/ names it.
func OpenMapped(path string) (*Reader2, error) { return Open2(path) }

// NewReader2 builds a reader over a GEODSET2 image already in memory,
// validating footer, index and header eagerly and blocks lazily. Every
// validation failure is one of the package's named errors; arbitrary
// input never panics (FuzzDataset2Decoder enforces both). The reader
// keeps data and never writes to it.
func NewReader2(data []byte) (*Reader2, error) {
	size := int64(len(data))
	if size < int64(len(Magic2)) || string(data[:len(Magic2)]) != Magic2 {
		return nil, ErrBadMagic
	}
	if size < int64(len(Magic2))+frameOverhead+footerLen {
		return nil, fmt.Errorf("%w: %d bytes is too small for a GEODSET2 file", ErrTruncated, size)
	}
	footer := data[size-footerLen:]
	if string(footer[20:]) != tailMagic {
		return nil, fmt.Errorf("%w: footer tail magic missing", ErrTruncated)
	}
	if crc32.ChecksumIEEE(footer[:16]) != binary.LittleEndian.Uint32(footer[16:]) {
		return nil, fmt.Errorf("%w: footer CRC mismatch", ErrCorrupt)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:]))
	records := binary.LittleEndian.Uint64(footer[8:])
	if indexOff < int64(len(Magic2))+frameOverhead || indexOff > size-footerLen-frameOverhead {
		return nil, fmt.Errorf("%w: index offset %d out of range", ErrCorrupt, indexOff)
	}

	d := &Reader2{data: data}
	d.refs.Store(1)

	// Header frame right after the magic.
	kind, payload, err := frameAt(data, int64(len(Magic2)), size, maxPayload)
	if err != nil {
		return nil, err
	}
	if kind != kindHeader {
		return nil, fmt.Errorf("%w: first frame has kind %d", ErrNoHeader, kind)
	}
	hdr, err := decodeHeader(payload)
	if err != nil {
		return nil, err
	}
	if hdr.Version != Version {
		return nil, fmt.Errorf("%w: artifact version %d, reader version %d",
			ErrBadVersion, hdr.Version, Version)
	}
	d.hdr = hdr

	// Index frame at the footer's offset.
	kind, payload, err = frameAt(data, indexOff, size-footerLen, maxIndexPayload)
	if err != nil {
		return nil, err
	}
	if kind != kindIndex {
		return nil, fmt.Errorf("%w: frame at index offset has kind %d", ErrCorrupt, kind)
	}
	if len(payload)%indexEntryLen != 0 {
		return nil, fmt.Errorf("%w: index payload length %d not a multiple of %d",
			ErrCorrupt, len(payload), indexEntryLen)
	}
	n := len(payload) / indexEntryLen
	d.blocks = make([]blockMeta, n)
	d.first = make([]uint32, n)
	d.verified = make([]atomic.Uint32, (n+31)/32)
	total := uint64(0)
	minOff := int64(len(Magic2)) + frameOverhead
	for i := range d.blocks {
		e := payload[i*indexEntryLen:]
		b := blockMeta{
			first: ipaddr.Prefix24(binary.LittleEndian.Uint32(e[0:])),
			last:  ipaddr.Prefix24(binary.LittleEndian.Uint32(e[4:])),
			count: binary.LittleEndian.Uint32(e[8:]),
			off:   int64(binary.LittleEndian.Uint64(e[12:])),
			plen:  binary.LittleEndian.Uint32(e[20:]),
		}
		switch {
		case b.count == 0 || b.count > maxBlockRecords:
			return nil, fmt.Errorf("%w: block %d claims %d records", ErrCorrupt, i, b.count)
		case uint32(b.first) > 0x00FF_FFFF || uint32(b.last) > 0x00FF_FFFF || b.first > b.last:
			return nil, fmt.Errorf("%w: block %d key range invalid", ErrCorrupt, i)
		case int(b.plen) != 2+int(b.count)*recordPayloadLen:
			return nil, fmt.Errorf("%w: block %d payload length %d does not match count %d",
				ErrCorrupt, i, b.plen, b.count)
		// plen is bounded by the case above, so the subtraction cannot
		// wrap the way b.off+plen would for an offset near MaxInt64.
		case b.off < minOff || b.off > indexOff-frameOverhead-int64(b.plen):
			return nil, fmt.Errorf("%w: block %d offset out of range", ErrCorrupt, i)
		case i > 0 && b.first <= d.blocks[i-1].last:
			return nil, fmt.Errorf("%w: block %d keys overlap block %d", ErrCorrupt, i, i-1)
		case i > 0 && b.off < d.blocks[i-1].off+frameOverhead+int64(d.blocks[i-1].plen):
			return nil, fmt.Errorf("%w: block %d overlaps block %d on disk", ErrCorrupt, i, i-1)
		}
		d.blocks[i], d.first[i] = b, uint32(b.first)
		total += uint64(b.count)
	}
	if total != records {
		return nil, fmt.Errorf("%w: footer says %d records, index sums to %d", ErrCorrupt, records, total)
	}
	d.records = int(records)
	meters.decodes.Inc()
	return d, nil
}

// frameAt CRC-checks the frame at off and returns its kind and its
// payload as a slice of data; limit is the first byte the frame must not
// extend past.
func frameAt(data []byte, off, limit int64, maxLen int) (byte, []byte, error) {
	if off+frameOverhead > limit {
		return 0, nil, fmt.Errorf("%w: frame at offset %d runs past EOF", ErrTruncated, off)
	}
	fh := data[off : off+frameOverhead]
	plen := int(binary.LittleEndian.Uint32(fh[1:]))
	if plen > maxLen {
		return 0, nil, fmt.Errorf("%w: frame at offset %d claims %d-byte payload", ErrCorrupt, off, plen)
	}
	if off+frameOverhead+int64(plen) > limit {
		return 0, nil, fmt.Errorf("%w: frame at offset %d runs past EOF", ErrTruncated, off)
	}
	payload := data[off+frameOverhead : off+frameOverhead+int64(plen)]
	if crc32.Update(crc32.ChecksumIEEE(fh[:1]), crc32.IEEETable, payload) != binary.LittleEndian.Uint32(fh[5:]) {
		return 0, nil, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
	}
	return fh[0], payload, nil
}

// Header returns the artifact's provenance header.
func (d *Reader2) Header() Header { return d.hdr }

// NumRecords reports the artifact's record count (from the footer,
// validated against the index).
func (d *Reader2) NumRecords() int { return d.records }

// NumBlocks reports the number of blocks.
func (d *Reader2) NumBlocks() int { return len(d.blocks) }

// Range returns the first and last prefixes the block index covers
// (both zero for an empty artifact).
func (d *Reader2) Range() (lo, hi ipaddr.Prefix24) {
	if len(d.blocks) == 0 {
		return 0, 0
	}
	return d.blocks[0].first, d.blocks[len(d.blocks)-1].last
}

// Mapped reports whether the image is a memory map of the file (resident
// pages belong to the page cache, which the kernel may reclaim) rather
// than a private copy on the heap.
func (d *Reader2) Mapped() bool { return d.mapped }

// TryPin takes a reference on the reader if it is still alive: the CAS
// loop increments refs only while they are positive, so a pin can never
// resurrect a reader whose last reference already dropped. Callers that
// lose this race must re-fetch the current artifact and retry.
func (d *Reader2) TryPin() bool {
	for {
		n := d.refs.Load()
		if n <= 0 {
			return false
		}
		if d.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Unpin drops a TryPin reference; the last reference out releases the
// image.
func (d *Reader2) Unpin() { d.release() }

// Close drops the owner reference taken at open. Idempotent. The image
// is released only when every pinned request has unpinned — a
// swapped-out reader stays valid until the last in-flight lookup drains.
func (d *Reader2) Close() error {
	if d.closed.CompareAndSwap(false, true) {
		d.release()
	}
	return nil
}

// release drops one reference and tears the reader down at zero.
func (d *Reader2) release() {
	if d.refs.Add(-1) != 0 {
		return
	}
	if d.mapped {
		munmapFile(d.data)
	}
	d.data = nil
}

// blockPayload returns block i's frame payload as a slice of the image,
// verifying the frame CRC and every record's decode and sort invariants
// once per block: the first toucher pays the full check, every later
// reader sees the set bit and slices straight in. A corrupt block is
// therefore detected on first touch, with the package's named errors,
// never a panic — and keeps being reported, since the bit is only ever
// set after a clean check.
func (d *Reader2) blockPayload(i int) ([]byte, error) {
	b := &d.blocks[i]
	w := &d.verified[i>>5]
	bit := uint32(1) << (uint(i) & 31)
	if w.Load()&bit != 0 {
		return d.data[b.off+frameOverhead : b.off+frameOverhead+int64(b.plen)], nil
	}
	payload, err := d.verifyBlock(i)
	if err != nil {
		return nil, err
	}
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return payload, nil
		}
	}
}

// verifyBlock checks block i in full — frame kind, length and CRC, the
// record count, every record's decode, strictly ascending keys, and the
// index entry's [first, last] — and returns its payload.
func (d *Reader2) verifyBlock(i int) ([]byte, error) {
	b := &d.blocks[i]
	kind, payload, err := frameAt(d.data, b.off, b.off+frameOverhead+int64(b.plen), int(b.plen))
	if err != nil {
		return nil, err
	}
	if kind != kindBlock {
		return nil, fmt.Errorf("%w: block %d frame has kind %d", ErrCorrupt, i, kind)
	}
	if len(payload) != int(b.plen) {
		return nil, fmt.Errorf("%w: block %d payload size mismatch", ErrCorrupt, i)
	}
	count := int(binary.LittleEndian.Uint16(payload))
	if count != int(b.count) {
		return nil, fmt.Errorf("%w: block %d holds %d records, index says %d", ErrCorrupt, i, count, b.count)
	}
	var first, prev ipaddr.Prefix24
	for k := 0; k < count; k++ {
		r, err := decodeRecord(payload[2+k*recordPayloadLen : 2+(k+1)*recordPayloadLen])
		if err != nil {
			return nil, err
		}
		if k == 0 {
			first = r.Prefix
		} else if prev >= r.Prefix {
			return nil, fmt.Errorf("%w: block %d records not strictly sorted at %d", ErrCorrupt, i, k)
		}
		prev = r.Prefix
	}
	if first != b.first || prev != b.last {
		return nil, fmt.Errorf("%w: block %d key range does not match its index entry", ErrCorrupt, i)
	}
	return payload, nil
}

// Lookup returns the record for exactly prefix p, touching at most one
// block. Fixed-size record payloads make the in-block binary search a
// pointer-arithmetic walk over the image, and only the single matching
// record is decoded: no copies, no lock, no allocation.
func (d *Reader2) Lookup(p ipaddr.Prefix24) (Record, bool, error) {
	if d.refs.Load() <= 0 {
		return Record{}, false, ErrClosed
	}
	if len(d.blocks) == 0 || uint32(p) > 0x00FF_FFFF {
		return Record{}, false, nil
	}
	key, at := [1]uint32{uint32(p)}, [1]int{}
	d.searchBlocks(key[:], at[:])
	i := at[0]
	if p < d.blocks[i].first || p > d.blocks[i].last {
		return Record{}, false, nil
	}
	payload, err := d.blockPayload(i)
	if err != nil {
		return Record{}, false, err
	}
	n := int(d.blocks[i].count)
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		key := ipaddr.Prefix24(binary.LittleEndian.Uint32(payload[2+mid*recordPayloadLen:]))
		if key < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= n {
		return Record{}, false, nil
	}
	rp := payload[2+lo*recordPayloadLen : 2+(lo+1)*recordPayloadLen]
	if ipaddr.Prefix24(binary.LittleEndian.Uint32(rp)) != p {
		return Record{}, false, nil
	}
	r, err := decodeRecord(rp)
	if err != nil {
		return Record{}, false, err
	}
	return r, true, nil
}

// Find returns the record covering addr's /24, mirroring Dataset.Find.
func (d *Reader2) Find(addr ipaddr.Addr) (Record, bool, error) {
	return d.Lookup(ipaddr.Prefix24Of(addr))
}

// All streams every record in prefix order through fn, stopping at the
// first error fn (or a damaged block) returns.
func (d *Reader2) All(fn func(Record) error) error {
	if d.refs.Load() <= 0 {
		return ErrClosed
	}
	for i := range d.blocks {
		payload, err := d.blockPayload(i)
		if err != nil {
			return err
		}
		for k := 0; k < int(d.blocks[i].count); k++ {
			r, err := decodeRecord(payload[2+k*recordPayloadLen : 2+(k+1)*recordPayloadLen])
			if err != nil {
				return err
			}
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// Materialize decodes the whole artifact into an in-RAM Dataset,
// verifying every block on the way (Load's second half).
func (d *Reader2) Materialize() (*Dataset, error) {
	ds := &Dataset{Hdr: d.hdr, Records: make([]Record, 0, d.records)}
	if err := d.All(func(r Record) error {
		ds.Records = append(ds.Records, r)
		return nil
	}); err != nil {
		return nil, err
	}
	return ds, nil
}
