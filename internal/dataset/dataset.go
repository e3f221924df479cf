// Package dataset turns a finished measurement campaign into the paper's
// end product: a publicly servable per-/24 IP geolocation dataset. Each
// record maps one /24 prefix to an estimated location, a CBG confidence
// radius (HLOC, arXiv:1706.09331, argues multi-source geolocation answers
// are unusable without one), a method tag saying which technique produced
// the estimate, and a sanitized flag recording whether the underlying
// vantage data survived the paper's §4.3 speed-of-Internet sanitization.
//
// The on-disk artifact is GEODSET2, the block-indexed format laid out at
// the top of dataset2.go: the one format this package writes (Writer2,
// Dataset.Write, Dataset.Encode, CompileExternal) and reads (Reader2). It
// reuses the checkpoint journal's framing style (DESIGN.md §3.3) — kind u8
// | payloadLen u32 | crc32(kind‖payload) u32 | payload — but unlike a
// journal a dataset file is written atomically and never appended to, so a
// torn tail is not a crash signature but damage: the reader rejects it
// with ErrTruncated instead of dropping it.
package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"geoloc/internal/cbg"
	"geoloc/internal/core"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/streetlevel"
	"geoloc/internal/telemetry"
)

// Version is the dataset format version every header carries.
const Version = 2

// maxPayload bounds a single record frame so corrupt length bytes cannot
// drive a huge allocation.
const maxPayload = 1 << 20

// frameOverhead is kind (1) + payload length (4) + CRC (4).
const frameOverhead = 9

// Frame kinds. (1 was the per-record frame of the retired flat format.)
const (
	kindHeader byte = 0
	kindBlock  byte = 2
	kindIndex  byte = 3
)

// recordPayloadLen is the fixed encoded size of one Record payload:
// prefix u32, lat f64, lon f64, radius f64, method u8, flags u8.
const recordPayloadLen = 4 + 8 + 8 + 8 + 1 + 1

// flagSanitized marks a record whose inputs survived §4.3 sanitization.
const flagSanitized byte = 1

// Named decode failures. Callers match with errors.Is.
var (
	// ErrBadMagic: the file is not a dataset artifact.
	ErrBadMagic = errors.New("dataset: bad magic")
	// ErrBadVersion: written by an incompatible format version.
	ErrBadVersion = errors.New("dataset: unsupported format version")
	// ErrCorrupt: a frame failed its CRC or a payload is malformed.
	ErrCorrupt = errors.New("dataset: artifact corrupt")
	// ErrTruncated: the file ends mid-frame. Datasets are written
	// atomically, so unlike a checkpoint journal a torn tail is damage.
	ErrTruncated = errors.New("dataset: artifact truncated")
	// ErrNoHeader: no decodable header record at the start of the file.
	ErrNoHeader = errors.New("dataset: missing header record")
	// ErrClosed: a Reader2 was used after its last reference dropped (the
	// owner's Close and every TryPin's Unpin); its image is gone.
	ErrClosed = errors.New("dataset: reader closed")
)

// Method tags which technique produced a record's estimate.
type Method uint8

// Method tags, in ascending trust-in-measurement order.
const (
	// MethodReported: no measurement backs the record; the location is
	// the platform-reported one (only unsanitized records use this).
	MethodReported Method = iota
	// MethodShortestPing: the CBG region was empty; the estimate is the
	// lowest-RTT vantage point's location.
	MethodShortestPing
	// MethodCBG: centroid of the CBG constraint intersection.
	MethodCBG
	// MethodStreetCBG: street-level pipeline that fell back to its CBG
	// tier-1 seed.
	MethodStreetCBG
	// MethodStreetLandmark: street-level landmark estimate.
	MethodStreetLandmark
	numMethods
)

// String implements fmt.Stringer with stable wire-format names.
func (m Method) String() string {
	switch m {
	case MethodReported:
		return "reported"
	case MethodShortestPing:
		return "shortest-ping"
	case MethodCBG:
		return "cbg"
	case MethodStreetCBG:
		return "street-cbg"
	case MethodStreetLandmark:
		return "street-landmark"
	default:
		return fmt.Sprintf("method-%d", uint8(m))
	}
}

// Record is one dataset row: everything a query-time consumer learns
// about addresses inside one /24.
type Record struct {
	// Prefix is the /24 the record covers.
	Prefix ipaddr.Prefix24
	// Centroid is the location estimate for the prefix.
	Centroid geo.Point
	// RadiusKm is the CBG confidence radius: the maximum distance from
	// the centroid to any sampled point of the constraint intersection.
	// Zero means no measured confidence (MethodReported records).
	RadiusKm float64
	// Method says which technique produced Centroid.
	Method Method
	// Sanitized records whether the estimate is backed by SOI-sanitized
	// measurements; unsanitized records carry untrusted reported
	// locations and must be treated accordingly by consumers.
	Sanitized bool
}

// Header identifies the campaign a dataset was compiled from.
type Header struct {
	Version    uint32
	ConfigHash uint64
	Seed       uint64
	Profile    string
}

// Dataset is a decoded (or freshly compiled) artifact. Records are sorted
// by prefix, one record per prefix.
type Dataset struct {
	Hdr     Header
	Records []Record
}

// meters holds the package's instrumentation (observational only).
var meters = struct {
	compiled *telemetry.Counter
	encodes  *telemetry.Counter
	decodes  *telemetry.Counter
	badLoads *telemetry.Counter
}{
	compiled: telemetry.Default().Counter("dataset.records_compiled"),
	encodes:  telemetry.Default().Counter("dataset.encodes"),
	decodes:  telemetry.Default().Counter("dataset.decodes"),
	badLoads: telemetry.Default().Counter("dataset.load_errors"),
}

// encodeHeader serializes a header record payload (same layout as the
// checkpoint journal header).
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
	if len(payload) != 22+n {
		return Header{}, fmt.Errorf("%w: header profile length mismatch", ErrCorrupt)
	}
	h.Profile = string(payload[22 : 22+n])
	return h, nil
}

// appendRecord appends r's payload (recordPayloadLen bytes) to buf.
func appendRecord(buf []byte, r Record) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Prefix))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Centroid.Lat))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Centroid.Lon))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.RadiusKm))
	buf = append(buf, byte(r.Method))
	var flags byte
	if r.Sanitized {
		flags |= flagSanitized
	}
	return append(buf, flags)
}

// decodeRecord parses one Record payload, validating every field a
// malicious or damaged file could abuse.
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) != recordPayloadLen {
		return Record{}, fmt.Errorf("%w: record payload is %d bytes, want %d",
			ErrCorrupt, len(payload), recordPayloadLen)
	}
	r := Record{
		Prefix: ipaddr.Prefix24(binary.LittleEndian.Uint32(payload[0:])),
		Centroid: geo.Point{
			Lat: math.Float64frombits(binary.LittleEndian.Uint64(payload[4:])),
			Lon: math.Float64frombits(binary.LittleEndian.Uint64(payload[12:])),
		},
		RadiusKm: math.Float64frombits(binary.LittleEndian.Uint64(payload[20:])),
	}
	m := payload[28]
	flags := payload[29]
	if uint32(r.Prefix) > 0x00FF_FFFF {
		return Record{}, fmt.Errorf("%w: prefix value %#x exceeds 24 bits", ErrCorrupt, uint32(r.Prefix))
	}
	if Method(m) >= numMethods {
		return Record{}, fmt.Errorf("%w: unknown method tag %d", ErrCorrupt, m)
	}
	if flags&^flagSanitized != 0 {
		return Record{}, fmt.Errorf("%w: unknown flag bits %#x", ErrCorrupt, flags)
	}
	if !r.Centroid.Valid() || math.IsNaN(r.RadiusKm) || math.IsInf(r.RadiusKm, 0) || r.RadiusKm < 0 {
		return Record{}, fmt.Errorf("%w: record geometry out of range", ErrCorrupt)
	}
	r.Method = Method(m)
	r.Sanitized = flags&flagSanitized != 0
	return r, nil
}

// Encode serializes the dataset into a GEODSET2 image at DefaultBlockSize —
// for sorted records, the bytes Write stores. Records are encoded as
// given: an image of unsorted or malformed records is well-framed, and
// NewReader2 or the first touch of the offending block rejects it with
// ErrCorrupt.
func (d *Dataset) Encode() []byte {
	var buf bytes.Buffer
	// An upper bound on the image: framing costs ~76 bytes plus 35 per block.
	buf.Grow(len(d.Records)*(recordPayloadLen+1) + len(d.Hdr.Profile) + 128)
	// Writes to a bytes.Buffer cannot fail, and the encoder has no other
	// error to give.
	e, _ := newEncoder(&buf, d.Hdr, DefaultBlockSize)
	for _, r := range d.Records {
		_ = e.add(r)
	}
	_, _ = e.finish()
	return buf.Bytes()
}

// Write stores the dataset atomically at path through Writer2 (temporary
// file, fsync, rename): a crash leaves either the old artifact or the new
// one, never a torn hybrid — which is why the reader can treat truncation
// as damage. Records must be strictly ascending by prefix; Compile and
// Load both guarantee it.
func (d *Dataset) Write(path string) error {
	w, err := NewWriter2(path, d.Hdr, 0)
	if err != nil {
		return err
	}
	for _, r := range d.Records {
		if err := w.Add(r); err != nil {
			w.Abort()
			return err
		}
	}
	_, err = w.Finish()
	return err
}

// Load reads an artifact file fully into memory, verifying every block —
// for client-side tools (the geobench baseline oracle) that want slice
// access. Servers read in place through Open2.
func Load(path string) (*Dataset, error) {
	r, err := Open2(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	d, err := r.Materialize()
	if err != nil {
		meters.badLoads.Inc()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// Find returns the record covering the /24 of addr (records are sorted,
// so this is a binary search), or false. Serving traffic goes through
// Reader2 instead; Find is the in-RAM convenience accessor.
func (d *Dataset) Find(addr ipaddr.Addr) (Record, bool) {
	p := ipaddr.Prefix24Of(addr)
	i := sort.Search(len(d.Records), func(i int) bool { return d.Records[i].Prefix >= p })
	if i < len(d.Records) && d.Records[i].Prefix == p {
		return d.Records[i], true
	}
	return Record{}, false
}

// Options tunes Compile.
type Options struct {
	// SpeedKmPerMs is the CBG propagation-speed constant; 0 means the
	// conservative geo.TwoThirdsC the paper's replication uses.
	SpeedKmPerMs float64
	// IncludeUnsanitized adds records for the anchors §4.3 removed, with
	// Sanitized=false, MethodReported and their (untrusted) reported
	// location — the dataset then documents which prefixes are known but
	// not measurement-backed.
	IncludeUnsanitized bool
}

// Compile builds the dataset from a finished campaign: one record per
// target /24 with the CBG centroid and confidence radius over the full
// vantage-point set. The campaign's target matrix is built on demand
// (idempotent). Everything is deterministic given the campaign's seed, so
// recompiling a same-config campaign yields a bit-identical artifact —
// the golden regression test depends on that.
//
// Compile is the in-RAM compilation path and the oracle the external-merge
// compiler (CompileExternal, stream.go) is pinned against bit for bit.
func Compile(c *core.Campaign, opts Options) *Dataset {
	defer telemetry.Default().StartSpan("phase.dataset").End()
	return CompileFromSource(NewCampaignSource(c), CampaignHeader(c), opts, CampaignExtras(c, opts))
}

// CampaignHeader builds the artifact header identifying a campaign.
func CampaignHeader(c *core.Campaign) Header {
	profile := "raw"
	if p := c.FaultProfile(); p != nil {
		profile = p.Name
	}
	return Header{
		Version:    Version,
		ConfigHash: c.ConfigHash(),
		Seed:       c.W.Cfg.Seed,
		Profile:    profile,
	}
}

// CampaignExtras returns the non-measured records a campaign contributes
// beyond its targets: the anchors §4.3 removed, when Options asks for
// them. They compete with target records in dedupe exactly as they did
// when Compile appended them inline — after all targets, in removal order.
func CampaignExtras(c *core.Campaign, opts Options) []Record {
	if !opts.IncludeUnsanitized {
		return nil
	}
	extras := make([]Record, 0, len(c.RemovedAnchors))
	for _, id := range c.RemovedAnchors {
		h := c.W.Host(id)
		extras = append(extras, Record{
			Prefix:   ipaddr.Prefix24Of(h.Addr),
			Centroid: h.Reported,
			Method:   MethodReported,
		})
	}
	return extras
}

// compileRecord estimates one target from its measurements: CBG centroid
// plus confidence radius when the constraint intersection is non-empty,
// shortest-ping fallback otherwise.
//
// The confidence radius is an analytic upper bound, not a sampled one:
// any point x inside constraint circle i satisfies dist(centroid, x) <=
// dist(centroid, center_i) + radius_i, so the minimum of that quantity
// over all constraints bounds how far anything in the intersection — the
// true location included, since RTT-derived distances are upper bounds at
// a conservative speed constant — can sit from the centroid. A sampled
// maximum would be tighter but loses the coverage guarantee to grid
// resolution.
// The constraint sampling runs through geo.Sampler: Region.Reduced's
// reduction bit for bit, then a unit-vector polar grid with no per-point
// libm — which is what makes million-target compiles tractable. The
// estimator is versioned, not frozen: a change to it moves artifact bytes
// and is judged by cmd/geodiff and the shape-target tests (DESIGN.md §3.5).
func compileRecord(ms []cbg.Measurement, speed float64) (Record, bool) {
	sm := compileSamplers.Get().(*geo.Sampler)
	defer compileSamplers.Put(sm)
	sm.Reset()
	tight := math.Inf(1)
	for _, m := range ms {
		if m.RTTMs < 0 || math.IsNaN(m.RTTMs) {
			continue
		}
		r := geo.RTTToDistanceKm(m.RTTMs, speed)
		sm.Add(geo.Circle{Center: m.VP, RadiusKm: r})
		if r < tight {
			tight = r
		}
	}
	if centroid, ok := sm.Centroid(); ok {
		radius := math.Inf(1)
		sm.Kept(func(c geo.Circle) {
			if bound := geo.Distance(centroid, c.Center) + c.RadiusKm; bound < radius {
				radius = bound
			}
		})
		return Record{Centroid: centroid, RadiusKm: radius, Method: MethodCBG}, true
	}
	est, err := cbg.ShortestPing(ms)
	if err != nil {
		return Record{}, false
	}
	if math.IsInf(tight, 1) {
		tight = 0 // no responsive VP: same zero Tightest reported on an empty region
	}
	return Record{Centroid: est, RadiusKm: tight, Method: MethodShortestPing}, true
}

// compileSamplers pools per-record sampling scratch across compile
// workers; a sampler is reset before use, so pooling never influences
// results.
var compileSamplers = sync.Pool{New: func() any { return new(geo.Sampler) }}

// sortRecords sorts by prefix and resolves duplicate prefixes, preferring
// sanitized records, then smaller confidence radii. The sort is stable so
// exact ties (e.g. two removed anchors sharing a /24) resolve to the
// earliest record in input order — the same rule the external-merge
// compiler applies across spill runs, which is what keeps the two paths
// bit-identical.
func sortRecords(d *Dataset) {
	sort.SliceStable(d.Records, func(i, j int) bool { return d.Records[i].Prefix < d.Records[j].Prefix })
	out := d.Records[:0]
	for _, r := range d.Records {
		if n := len(out); n > 0 && out[n-1].Prefix == r.Prefix {
			if better(r, out[n-1]) {
				out[n-1] = r
			}
			continue
		}
		out = append(out, r)
	}
	d.Records = out
}

// better ranks duplicate-prefix records: sanitized beats unsanitized,
// then the tighter confidence radius wins.
func better(a, b Record) bool {
	if a.Sanitized != b.Sanitized {
		return a.Sanitized
	}
	return a.RadiusKm < b.RadiusKm
}

// MergeStreetLevel overlays street-level results onto compiled records:
// the estimate for the target's prefix is replaced by the street-level
// one and the method tag upgraded (MethodStreetLandmark when a landmark
// was selected, MethodStreetCBG for the tier-1 fallback). The CBG
// confidence radius is kept — the constraint region still bounds the
// target; street level refines the point inside it. Returns how many
// records were updated.
func MergeStreetLevel(d *Dataset, c *core.Campaign, results []streetlevel.Result) int {
	byPrefix := make(map[ipaddr.Prefix24]int, len(d.Records))
	for i, r := range d.Records {
		byPrefix[r.Prefix] = i
	}
	updated := 0
	for _, res := range results {
		if res.Target < 0 || res.Target >= len(c.Targets) {
			continue
		}
		i, ok := byPrefix[ipaddr.Prefix24Of(c.Targets[res.Target].Addr)]
		if !ok || !d.Records[i].Sanitized {
			continue
		}
		d.Records[i].Centroid = res.Estimate
		if res.Method == "landmark" {
			d.Records[i].Method = MethodStreetLandmark
		} else {
			d.Records[i].Method = MethodStreetCBG
		}
		updated++
	}
	return updated
}
