// Package checkpoint is the crash-safety substrate of the pipeline: an
// append-only, CRC-framed journal of completed measurement batches and
// phase results. A campaign journals each batch as it completes; a killed
// run reopens the journal, replays the batches it finds, and continues
// from where it stopped, producing results bit-identical to an
// uninterrupted run (DESIGN.md §3.3).
//
// The format is deliberately boring:
//
//	magic "GEOCKPT1" (8 bytes)
//	record*           kind u8 | payloadLen u32 | crc32(kind‖payload) u32 | payload
//
// The first record is always the header (format version, campaign config
// hash, world seed, fault-profile name). A journal whose header does not
// match the resuming campaign is rejected with ErrMismatch — a checkpoint
// from a different world, profile, or code version must never be silently
// replayed into the wrong campaign.
//
// Torn tails are expected, not exceptional: a crash mid-append leaves a
// truncated or garbage final frame, which the decoder drops (reporting
// torn=true) while keeping every record before it. Corruption anywhere
// *before* the final frame means the file was damaged at rest, not torn
// by a crash, and is rejected with ErrCorrupt.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"geoloc/internal/telemetry"
)

// Magic identifies a checkpoint journal file.
const Magic = "GEOCKPT1"

// Version is the current journal format version. Decoders reject other
// versions with ErrBadVersion rather than guessing at record layouts.
const Version = 1

// maxPayload bounds a single record so a corrupt length field cannot make
// the decoder attempt a multi-gigabyte allocation.
const maxPayload = 64 << 20

// frameOverhead is the fixed size of a record frame before its payload:
// kind (1) + payload length (4) + CRC (4).
const frameOverhead = 9

// Kind tags a journal record.
type Kind uint8

// Record kinds. KindHeader is reserved for the mandatory first record.
const (
	KindHeader Kind = iota
	// KindRow is one completed measurement batch: a matrix row plus its
	// accounting (core encodes the payload).
	KindRow
	// KindPhase marks a campaign phase as fully completed, with a digest
	// of its result for cross-resume integrity checking.
	KindPhase
	// KindReport is one completed experiment's rendered report.
	KindReport
)

// Named decode/validation failures. Callers match with errors.Is.
var (
	// ErrBadMagic: the file is not a checkpoint journal.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrBadVersion: the journal was written by an incompatible format
	// version.
	ErrBadVersion = errors.New("checkpoint: unsupported journal version")
	// ErrMismatch: the journal belongs to a different campaign (config
	// hash, seed, or profile differ) and must not be replayed.
	ErrMismatch = errors.New("checkpoint: journal does not match campaign")
	// ErrCorrupt: a record before the final frame failed its CRC — the
	// file was damaged, not merely torn by a crash.
	ErrCorrupt = errors.New("checkpoint: journal corrupt")
	// ErrNoHeader: the journal has no decodable header record (e.g. the
	// crash hit during journal creation).
	ErrNoHeader = errors.New("checkpoint: missing header record")
)

// Header identifies the campaign a journal belongs to.
type Header struct {
	// Version is the journal format version (see Version).
	Version uint32
	// ConfigHash canonically hashes everything that determines measurement
	// results (world config, fault profile, client config).
	ConfigHash uint64
	// Seed is the world seed, kept separate from the hash for diagnostics.
	Seed uint64
	// Profile names the fault profile the campaign ran under.
	Profile string
}

// Record is one decoded journal record (header excluded).
type Record struct {
	Kind    Kind
	Payload []byte
}

// meters holds the package's instrumentation, resolved once against the
// global default registry (observational only — accounting never reads it).
var meters = struct {
	appends   *telemetry.Counter
	bytes     *telemetry.Counter
	syncs     *telemetry.Counter
	resumes   *telemetry.Counter
	restored  *telemetry.Counter
	tornTails *telemetry.Counter
}{
	appends:   telemetry.Default().Counter("checkpoint.records_appended"),
	bytes:     telemetry.Default().Counter("checkpoint.bytes_appended"),
	syncs:     telemetry.Default().Counter("checkpoint.syncs"),
	resumes:   telemetry.Default().Counter("checkpoint.resumes"),
	restored:  telemetry.Default().Counter("checkpoint.records_restored"),
	tornTails: telemetry.Default().Counter("checkpoint.torn_tails"),
}

// encodeHeader serializes a header record payload.
func encodeHeader(h Header) []byte {
	buf := make([]byte, 0, 4+8+8+2+len(h.Profile))
	buf = binary.LittleEndian.AppendUint32(buf, h.Version)
	buf = binary.LittleEndian.AppendUint64(buf, h.ConfigHash)
	buf = binary.LittleEndian.AppendUint64(buf, h.Seed)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(h.Profile)))
	return append(buf, h.Profile...)
}

// decodeHeader parses a header record payload.
func decodeHeader(payload []byte) (Header, error) {
	if len(payload) < 4+8+8+2 {
		return Header{}, fmt.Errorf("%w: header payload too short", ErrCorrupt)
	}
	h := Header{
		Version:    binary.LittleEndian.Uint32(payload[0:]),
		ConfigHash: binary.LittleEndian.Uint64(payload[4:]),
		Seed:       binary.LittleEndian.Uint64(payload[12:]),
	}
	n := int(binary.LittleEndian.Uint16(payload[20:]))
	if len(payload) < 22+n {
		return Header{}, fmt.Errorf("%w: header profile truncated", ErrCorrupt)
	}
	h.Profile = string(payload[22 : 22+n])
	return h, nil
}

// frame serializes one record into its on-disk frame.
func frame(k Kind, payload []byte) []byte {
	return AppendFrame(make([]byte, 0, frameOverhead+len(payload)), k, payload)
}

// AppendFrame appends one record's on-disk frame to dst and returns the
// extended slice. A writer that produces many small records at once (a
// dataset spill run) frames them all into one reused buffer and commits
// it with Journal.AppendFrames: one write instead of one per record.
// Unlike Journal.Append it does not police the record size limit; it is
// for payloads of a known small size.
func AppendFrame(dst []byte, k Kind, payload []byte) []byte {
	dst = append(dst, byte(k))
	crc := crc32.Update(0, crc32.IEEETable, dst[len(dst)-1:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return append(dst, payload...)
}

// Decode parses a journal image. It returns the header, the records after
// it, whether a torn final frame was dropped, and the byte length of the
// valid prefix (the offset a resuming writer must truncate to before
// appending).
//
// Decode never rejects a torn tail — that is the normal signature of a
// mid-write crash. It does reject damage anywhere else: ErrBadMagic,
// ErrBadVersion, ErrNoHeader, ErrCorrupt, ErrMismatch (via Validate only;
// Decode itself does not compare headers).
func Decode(data []byte) (hdr Header, recs []Record, torn bool, goodLen int64, err error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return Header{}, nil, false, 0, ErrBadMagic
	}
	off := len(Magic)
	first := true
	for off < len(data) {
		rest := len(data) - off
		if rest < frameOverhead {
			torn = true
			break
		}
		k := Kind(data[off])
		plen := int(binary.LittleEndian.Uint32(data[off+1:]))
		want := binary.LittleEndian.Uint32(data[off+5:])
		if plen > maxPayload || rest < frameOverhead+plen {
			// The claimed payload runs past EOF (or is absurd): a frame cut
			// mid-write, or garbage length bytes from one. Either way only
			// the final frame can look like this.
			torn = true
			break
		}
		payload := data[off+frameOverhead : off+frameOverhead+plen]
		crc := crc32.NewIEEE()
		crc.Write(data[off : off+1])
		crc.Write(payload)
		if crc.Sum32() != want {
			if off+frameOverhead+plen == len(data) {
				// Bad CRC on the very last frame: a torn write that got the
				// length down but not the payload. Drop it.
				torn = true
				break
			}
			return Header{}, nil, false, 0, fmt.Errorf(
				"%w: CRC mismatch at offset %d (record %d)", ErrCorrupt, off, len(recs)+1)
		}
		off += frameOverhead + plen
		if first {
			first = false
			if k != KindHeader {
				return Header{}, nil, false, 0, fmt.Errorf(
					"%w: first record has kind %d", ErrNoHeader, k)
			}
			hdr, err = decodeHeader(payload)
			if err != nil {
				return Header{}, nil, false, 0, err
			}
			if hdr.Version != Version {
				return Header{}, nil, false, 0, fmt.Errorf(
					"%w: journal version %d, decoder version %d", ErrBadVersion, hdr.Version, Version)
			}
			continue
		}
		recs = append(recs, Record{Kind: k, Payload: append([]byte(nil), payload...)})
	}
	if first {
		// No complete header record at all: the crash hit during creation.
		return Header{}, nil, torn, 0, ErrNoHeader
	}
	return hdr, recs, torn, int64(off), nil
}

// Validate compares a decoded header against the campaign that wants to
// resume from it. Version is checked by Decode; Validate checks identity.
func Validate(got, want Header) error {
	if got.ConfigHash != want.ConfigHash || got.Seed != want.Seed || got.Profile != want.Profile {
		return fmt.Errorf(
			"%w: journal has seed=%d profile=%q hash=%016x, campaign has seed=%d profile=%q hash=%016x",
			ErrMismatch, got.Seed, got.Profile, got.ConfigHash, want.Seed, want.Profile, want.ConfigHash)
	}
	return nil
}

// Journal is an open checkpoint journal. Append and Sync are safe for
// concurrent use; the campaign's parallel batch workers commit through one
// Journal.
type Journal struct {
	mu sync.Mutex
	f  *os.File
	// dirty counts appends since the last sync, for AppendEvery batching.
	dirty int
}

// Create starts a fresh journal at path (truncating any previous file) and
// writes its header record.
func Create(path string, hdr Header) (*Journal, error) {
	hdr.Version = Version
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f}
	if _, err := f.Write([]byte(Magic)); err != nil {
		f.Close()
		return nil, err
	}
	if err := j.Append(KindHeader, encodeHeader(hdr)); err != nil {
		f.Close()
		return nil, err
	}
	if err := j.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// Open resumes an existing journal: it decodes and validates the file
// against want, truncates a torn tail so appends continue from the last
// good record, and returns the surviving records. A missing file (or one
// whose header record never made it to disk) starts fresh instead — there
// is nothing to mismatch against.
//
// Corrupt or mismatched journals are returned as errors, never silently
// reused; the caller decides whether to delete and restart.
func Open(path string, want Header) (*Journal, []Record, error) {
	want.Version = Version
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		j, err := Create(path, want)
		return j, nil, err
	}
	if err != nil {
		return nil, nil, err
	}
	hdr, recs, torn, goodLen, err := Decode(data)
	if errors.Is(err, ErrNoHeader) || len(data) == 0 {
		// Crash during creation: no usable header, nothing replayable.
		j, err := Create(path, want)
		return j, nil, err
	}
	if err != nil {
		return nil, nil, err
	}
	if err := Validate(hdr, want); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if torn {
		meters.tornTails.Inc()
		if err := f.Truncate(goodLen); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(goodLen, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	meters.resumes.Inc()
	meters.restored.Add(int64(len(recs)))
	return &Journal{f: f}, recs, nil
}

// Append writes one record frame. The frame hits the OS on return but is
// not fsynced; call Sync at batch-commit points.
func (j *Journal) Append(k Kind, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("checkpoint: record payload %d bytes exceeds limit", len(payload))
	}
	return j.AppendFrames(frame(k, payload), 1)
}

// AppendFrames writes frames — n records framed back to back by
// AppendFrame — in a single write: the bytes on disk are those n Append
// calls would have left. Like Append it does not fsync.
func (j *Journal) AppendFrames(frames []byte, n int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(frames); err != nil {
		return err
	}
	j.dirty += n
	meters.appends.Add(int64(n))
	meters.bytes.Add(int64(len(frames)))
	return nil
}

// AppendEvery appends and additionally fsyncs once per n appends (n <= 1
// syncs every append). It is the batch-commit helper campaigns use.
func (j *Journal) AppendEvery(k Kind, payload []byte, n int) error {
	if err := j.Append(k, payload); err != nil {
		return err
	}
	j.mu.Lock()
	due := n <= 1 || j.dirty >= n
	j.mu.Unlock()
	if due {
		return j.Sync()
	}
	return nil
}

// Size reports the journal's current on-disk length in bytes — magic,
// header, and every appended frame, fsynced or not. 0 after Close.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return 0
	}
	st, err := j.f.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

// Sync fsyncs the journal.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.dirty = 0
	meters.syncs.Inc()
	return nil
}

// Close syncs and closes the journal. The file stays on disk — deleting a
// completed checkpoint is the caller's policy, not the journal's.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
