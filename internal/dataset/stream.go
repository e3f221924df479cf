// Streaming, bounded-memory dataset compilation (DESIGN.md §3.9).
//
// The in-RAM Compile holds every record of a campaign at once, which caps
// scale at memory rather than at a config knob. This file provides the
// external-merge alternative: targets are measured and compiled in
// fixed-size windows, each window's records are sorted and spilled as a
// checkpoint-journal "run" file, and the runs are k-way merged straight
// into the final artifact. Peak memory is proportional to the window
// size (plus one small read buffer per run), never to the target count.
//
// The spill format deliberately *is* the checkpoint journal (GEOCKPT1):
// a sealed run is header + KindRow frames (one encoded Record each) +
// one KindPhase seal carrying the window's identity and a running CRC.
// Reusing the journal buys the crash semantics for free — a run with a
// torn tail or a missing seal is simply re-measured on resume, exactly
// like an unfinished campaign phase, and a sealed run is replayed
// verbatim. Resume therefore yields a bit-identical artifact, which the
// kill/resume sweep test proves at every byte of a torn run.
package dataset

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"geoloc/internal/cbg"
	"geoloc/internal/checkpoint"
	"geoloc/internal/core"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/par"
	"geoloc/internal/rhash"
	"geoloc/internal/telemetry"
)

// Source feeds targets to the compiler one at a time, which is what
// keeps streaming compilation O(window): nothing requires the targets
// (or their measurements) to exist in memory simultaneously.
// MeasureTarget must be a pure function of t — safe for concurrent calls
// on distinct t, bit-identical on repeat — because windows are measured
// through the par pool and re-measured on resume. buf is the caller's
// scratch; implementations append into buf[:0] and return it.
//
// core.StreamCampaign implements Source for synthetic million-scale
// campaigns; CampaignSource adapts a finished matrix-backed campaign.
type Source interface {
	NumTargets() int
	MeasureTarget(t int, buf []cbg.Measurement) (ipaddr.Prefix24, []cbg.Measurement)
}

// CampaignSource adapts a finished campaign's RTT matrix to the Source
// interface. It reproduces the exact measurement view the in-RAM Compile
// used: every non-NaN vantage-point RTT for the target, in VP order.
type CampaignSource struct {
	c *core.Campaign
}

// NewCampaignSource wraps a campaign, building its target matrix on
// demand (idempotent, as in Compile).
func NewCampaignSource(c *core.Campaign) *CampaignSource {
	c.BuildTargetMatrix()
	return &CampaignSource{c: c}
}

// NumTargets implements Source.
func (s *CampaignSource) NumTargets() int { return len(s.c.Targets) }

// MeasureTarget implements Source.
func (s *CampaignSource) MeasureTarget(t int, buf []cbg.Measurement) (ipaddr.Prefix24, []cbg.Measurement) {
	m := s.c.TargetRTT
	buf = buf[:0]
	for vp, rtt := range m.Column(t) {
		if !cbg.IsUnresponsive(rtt) {
			buf = append(buf, cbg.Measurement{VP: m.VPs[vp], RTTMs: float64(rtt)})
		}
	}
	return ipaddr.Prefix24Of(s.c.Targets[t].Addr), buf
}

// StreamHeader is the artifact header of a streamed campaign.
func StreamHeader(s *core.StreamCampaign) Header {
	return Header{ConfigHash: s.ConfigHash(), Seed: s.C.W.Cfg.Seed, Profile: "stream"}
}

// CompileFromSource is the in-RAM compilation core: measure every target,
// compile a record per responsive one, append extras, stable-sort and
// dedupe. Compile routes through it; the memory-ceiling test uses it
// directly as the materialize-everything foil.
func CompileFromSource(src Source, hdr Header, opts Options, extra []Record) *Dataset {
	speed := opts.SpeedKmPerMs
	if speed == 0 {
		speed = geo.TwoThirdsC
	}
	n := src.NumTargets()
	d := &Dataset{Hdr: hdr}
	d.Hdr.Version = Version
	// Per-target records fan across the analysis pool into index-addressed
	// slices (par determinism contract: each worker reuses its own
	// measurement scratch, no cross-target state), then reduce in target
	// order — bit-identical at any worker count.
	recs := make([]Record, n)
	oks := make([]bool, n)
	pfx := make([]ipaddr.Prefix24, n)
	scratch := make([][]cbg.Measurement, par.Workers(n))
	par.ForWorker(n, func(w, t int) {
		p, ms := src.MeasureTarget(t, scratch[w])
		scratch[w] = ms
		pfx[t] = p
		recs[t], oks[t] = compileRecord(ms, speed)
	})
	d.Records = make([]Record, 0, n+len(extra))
	for t := range recs {
		if !oks[t] {
			continue // no responsive vantage point at all: nothing to say
		}
		rec := recs[t]
		rec.Prefix = pfx[t]
		rec.Sanitized = true
		d.Records = append(d.Records, rec)
	}
	d.Records = append(d.Records, extra...)
	sortRecords(d)
	return d
}

// DefaultStreamWindow is the spill window: targets measured, compiled,
// sorted, and spilled as one run. 4096 records ≈ 200 KB resident.
const DefaultStreamWindow = 4096

// StreamConfig tunes CompileExternal.
type StreamConfig struct {
	// Window is the spill window size in targets (DefaultStreamWindow
	// when <= 0). Peak heap scales with Window, not with the target
	// count; the window size is mixed into the spill-run identity hash,
	// so resuming with a different window re-measures from scratch.
	Window int
	// SpillDir holds the run files (created if missing). Required.
	SpillDir string
	// Resume reuses sealed runs found in SpillDir from a previous
	// (killed) invocation of the same compilation. Runs that are torn,
	// unsealed, or belong to a different campaign/window are re-measured.
	Resume bool
	// KeepSpill leaves the run files in place after a successful merge
	// (for debugging); by default they are deleted.
	KeepSpill bool
	// V2 has no effect.
	//
	// Deprecated: GEODSET2 is the only format. Kept for one release because
	// benchmark/ sets it.
	V2 bool
	// BlockSize is the records-per-block (DefaultBlockSize when <= 0).
	BlockSize int
	// OnWindowSpilled, when set, runs after window w's run file is sealed
	// and fsynced. Returning an error aborts the compilation with that
	// error, leaving the spill dir behind — the kill/resume tests' crash
	// injection point.
	OnWindowSpilled func(window int) error
	// Metrics is the registry the compilation and its spill journals
	// meter into; nil meters nothing.
	Metrics *telemetry.Registry
}

// StreamStats reports what a streaming compilation did.
type StreamStats struct {
	Targets       int   // targets measured or replayed
	Records       int   // records in the final artifact
	Windows       int   // spill windows (excluding the extras run)
	WindowsReused int   // sealed runs replayed from a previous invocation
	SpillBytes    int64 // total size of the run files merged
	ArtifactBytes int64 // final artifact size on disk
	Blocks        int   // blocks in the final artifact
}

// Spill-run constants. A run is a checkpoint journal whose rows are
// encoded Records and whose final record is a KindPhase seal.
const (
	// spillSalt namespaces the spill-run identity hash.
	spillSalt uint64 = 0x5C12_0009
	// extrasWindow is the seal window index of the extras run.
	extrasWindow uint32 = 0xFFFF_FFFF
	// sealPayloadLen: window u32 | firstTarget u32 | count u32 | crc u32.
	sealPayloadLen = 16
)

// spillHeader derives the journal header for this compilation's runs:
// the artifact identity plus the window size, so a resumed run can never
// be replayed into a differently-windowed (and thus differently-batched)
// compilation.
func spillHeader(hdr Header, window int) checkpoint.Header {
	return checkpoint.Header{
		ConfigHash: rhash.Hash(spillSalt, hdr.ConfigHash, hdr.Seed, uint64(window)),
		Seed:       hdr.Seed,
		Profile:    hdr.Profile,
	}
}

// runPath names window w's spill file; the extras run uses "extra".
func runPath(dir string, w int) string {
	return filepath.Join(dir, fmt.Sprintf("run-%05d.ckpt", w))
}

func extrasPath(dir string) string { return filepath.Join(dir, "run-extra.ckpt") }

// encodeSeal builds the KindPhase seal payload for a run.
func encodeSeal(window, first uint32, count int, crc uint32) []byte {
	buf := make([]byte, 0, sealPayloadLen)
	buf = binary.LittleEndian.AppendUint32(buf, window)
	buf = binary.LittleEndian.AppendUint32(buf, first)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(count))
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// writeRun spills one sorted window of records as a sealed journal. The
// whole run — every row frame and the seal — is framed into buf and
// handed to the journal in one write, so a window costs one write(2) and
// no per-record allocation; the file is byte for byte what appending the
// records one at a time would leave. buf is returned for the next window
// to reuse. The run's journal meters into reg.
func writeRun(path string, hdr checkpoint.Header, window, first uint32, recs []Record, buf []byte, reg *telemetry.Registry) ([]byte, error) {
	j, err := checkpoint.Create(path, hdr, reg)
	if err != nil {
		return buf, err
	}
	buf = buf[:0]
	var crc uint32
	var payload [recordPayloadLen]byte
	for _, r := range recs {
		p := appendRecord(payload[:0], r)
		crc = crc32.Update(crc, crc32.IEEETable, p)
		buf = checkpoint.AppendFrame(buf, checkpoint.KindRow, p)
	}
	buf = checkpoint.AppendFrame(buf, checkpoint.KindPhase, encodeSeal(window, first, len(recs), crc))
	if err := j.AppendFrames(buf, len(recs)+1); err != nil {
		j.Close()
		return buf, err
	}
	return buf, j.Close() // Close syncs: the seal is durable before we move on
}

// validRun checks whether a spill file is a complete sealed run for
// window w of this compilation: matching journal header, every row frame
// intact, and a trailing seal whose window/first/count/CRC all match
// what a fresh spill would have written. Anything less — torn tail,
// missing seal, foreign header — means "re-measure this window".
func validRun(path string, want checkpoint.Header, window, first uint32) bool {
	r, err := checkpoint.OpenReader(path)
	if err != nil {
		return false
	}
	defer r.Close()
	if err := checkpoint.Validate(r.Header(), want); err != nil {
		return false
	}
	crc := crc32.NewIEEE()
	count := 0
	sealed := false
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return sealed
		}
		if err != nil {
			return false
		}
		if sealed {
			return false // trailing garbage after the seal
		}
		switch rec.Kind {
		case checkpoint.KindRow:
			if len(rec.Payload) != recordPayloadLen {
				return false
			}
			crc.Write(rec.Payload)
			count++
		case checkpoint.KindPhase:
			if len(rec.Payload) != sealPayloadLen {
				return false
			}
			if binary.LittleEndian.Uint32(rec.Payload[0:]) != window ||
				binary.LittleEndian.Uint32(rec.Payload[4:]) != first ||
				binary.LittleEndian.Uint32(rec.Payload[8:]) != uint32(count) ||
				binary.LittleEndian.Uint32(rec.Payload[12:]) != crc.Sum32() {
				return false
			}
			sealed = true
		default:
			return false
		}
	}
}

// runReader streams decoded records out of one sealed run during the
// merge. Validation already happened (a fresh run was just written by
// us; a reused one passed validRun), so any error here is fatal.
type runReader struct {
	r    *checkpoint.Reader
	idx  int // run index = merge tie-break priority
	head Record
	done bool
}

func (rr *runReader) advance() error {
	for {
		rec, err := rr.r.Next()
		if err == io.EOF {
			rr.done = true
			return nil
		}
		if err != nil {
			return err
		}
		switch rec.Kind {
		case checkpoint.KindRow:
			r, err := decodeRecord(rec.Payload)
			if err != nil {
				return err
			}
			rr.head = r
			return nil
		case checkpoint.KindPhase:
			rr.done = true
			return nil
		default:
			return fmt.Errorf("dataset: unexpected kind %d in spill run", rec.Kind)
		}
	}
}

// mergeHeap orders run heads by (prefix, run index). Ordering equal
// prefixes by run index — and runs being windows in target order, with
// the extras run last — reproduces exactly the stable input order the
// in-RAM sortRecords sees, so the duplicate fold below is bit-identical
// to it.
type mergeHeap []*runReader

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].head.Prefix != h[j].head.Prefix {
		return h[i].head.Prefix < h[j].head.Prefix
	}
	return h[i].idx < h[j].idx
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*runReader)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// CompileExternal is the bounded-memory equivalent of Compile: it
// measures src in windows, spills each window as a sorted run, and
// k-way merges the runs into the artifact at path — at DefaultBlockSize,
// bytes identical to CompileFromSource(...).Write(path). Peak heap is
// O(Window + runs·8KB) regardless of src.NumTargets(); the memory-ceiling
// test enforces it.
func CompileExternal(path string, src Source, hdr Header, opts Options, extra []Record, cfg StreamConfig) (StreamStats, error) {
	defer cfg.Metrics.StartSpan("phase.dataset_external").End()
	var stats StreamStats
	if cfg.SpillDir == "" {
		return stats, errors.New("dataset: CompileExternal needs a spill dir")
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultStreamWindow
	}
	if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
		return stats, err
	}
	speed := opts.SpeedKmPerMs
	if speed == 0 {
		speed = geo.TwoThirdsC
	}
	hdr.Version = Version
	shdr := spillHeader(hdr, cfg.Window)

	n := src.NumTargets()
	windows := (n + cfg.Window - 1) / cfg.Window
	stats.Targets = n
	stats.Windows = windows

	// Phase 1: spill. Window buffers and per-worker scratch are allocated
	// once and reused across windows — this loop is the whole point of
	// the file: nothing here grows with n.
	recs := make([]Record, cfg.Window)
	oks := make([]bool, cfg.Window)
	pfx := make([]ipaddr.Prefix24, cfg.Window)
	sorted := make([]Record, 0, cfg.Window)
	scratch := make([][]cbg.Measurement, par.Workers(cfg.Window))
	var runBuf []byte // the run being framed, reused across windows
	for w := 0; w < windows; w++ {
		lo := w * cfg.Window
		hi := lo + cfg.Window
		if hi > n {
			hi = n
		}
		rp := runPath(cfg.SpillDir, w)
		if cfg.Resume && validRun(rp, shdr, uint32(w), uint32(lo)) {
			stats.WindowsReused++
			continue
		}
		par.ForWorker(hi-lo, func(wk, i int) {
			t := lo + i
			p, ms := src.MeasureTarget(t, scratch[wk])
			scratch[wk] = ms
			pfx[i] = p
			recs[i], oks[i] = compileRecord(ms, speed)
		})
		sorted = sorted[:0]
		for i := 0; i < hi-lo; i++ {
			if !oks[i] {
				continue
			}
			rec := recs[i]
			rec.Prefix = pfx[i]
			rec.Sanitized = true
			sorted = append(sorted, rec)
		}
		// Stable by prefix: same-prefix targets keep target order, as the
		// in-RAM path's stable global sort would have them.
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Prefix < sorted[j].Prefix })
		var err error
		if runBuf, err = writeRun(rp, shdr, uint32(w), uint32(lo), sorted, runBuf, cfg.Metrics); err != nil {
			return stats, err
		}
		if cfg.OnWindowSpilled != nil {
			if err := cfg.OnWindowSpilled(w); err != nil {
				return stats, err
			}
		}
	}
	// Extras ride in a final run so they sort after every target record
	// with the same prefix, matching the in-RAM append order.
	runPaths := make([]string, 0, windows+1)
	for w := 0; w < windows; w++ {
		runPaths = append(runPaths, runPath(cfg.SpillDir, w))
	}
	if len(extra) > 0 {
		ex := make([]Record, len(extra))
		copy(ex, extra)
		sort.SliceStable(ex, func(i, j int) bool { return ex[i].Prefix < ex[j].Prefix })
		p := extrasPath(cfg.SpillDir)
		if !(cfg.Resume && validRun(p, shdr, extrasWindow, uint32(n))) {
			if _, err := writeRun(p, shdr, extrasWindow, uint32(n), ex, runBuf, cfg.Metrics); err != nil {
				return stats, err
			}
		}
		runPaths = append(runPaths, p)
	}

	// Phase 2: k-way merge into the artifact.
	records, bytes, blocks, err := mergeRuns(path, hdr, runPaths, cfg)
	if err != nil {
		return stats, err
	}
	stats.Records = records
	stats.ArtifactBytes = bytes
	stats.Blocks = blocks
	for _, p := range runPaths {
		if st, err := os.Stat(p); err == nil {
			stats.SpillBytes += st.Size()
		}
	}
	if !cfg.KeepSpill {
		for _, p := range runPaths {
			os.Remove(p)
		}
	}
	cfg.Metrics.Counter("dataset.records_compiled").Add(int64(records))
	return stats, nil
}

// mergeRuns streams every run through a merge heap into the artifact
// writer, folding duplicate prefixes with the same better() rule — and
// the same encounter order — as the in-RAM sortRecords.
func mergeRuns(path string, hdr Header, runPaths []string, cfg StreamConfig) (records int, bytes int64, blocks int, err error) {
	w, err := NewWriter2(path, hdr, cfg.BlockSize)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() {
		if err != nil {
			w.Abort()
		}
	}()

	h := make(mergeHeap, 0, len(runPaths))
	defer func() {
		for _, rr := range h {
			rr.r.Close()
		}
	}()
	for i, p := range runPaths {
		rr := &runReader{idx: i}
		rr.r, err = checkpoint.OpenReader(p)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("dataset: reopening spill run: %w", err)
		}
		if err = rr.advance(); err != nil {
			return 0, 0, 0, err
		}
		if rr.done {
			rr.r.Close()
			continue
		}
		h = append(h, rr)
	}
	heap.Init(&h)

	var best Record
	have := false
	for h.Len() > 0 {
		rr := h[0]
		r := rr.head
		if err = rr.advance(); err != nil {
			return 0, 0, 0, err
		}
		if rr.done {
			rr.r.Close()
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
		switch {
		case !have:
			best, have = r, true
		case r.Prefix == best.Prefix:
			if better(r, best) {
				best = r
			}
		default:
			if err = w.Add(best); err != nil {
				return 0, 0, 0, err
			}
			records++
			best = r
		}
	}
	if have {
		if err = w.Add(best); err != nil {
			return 0, 0, 0, err
		}
		records++
	}
	if bytes, err = w.Finish(); err != nil {
		return 0, 0, 0, err
	}
	return records, bytes, w.NumBlocks(), nil
}
