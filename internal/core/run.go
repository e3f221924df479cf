// Crash-safe campaign execution: Run drives the bulk ping campaigns with
// checkpoint journaling and two-stage context cancellation, producing
// matrices bit-identical to BuildMatrices no matter how often the process
// is killed and resumed in between (DESIGN.md §3.3).
//
// The unit of recovery is one matrix row — one vantage point's batch
// against every target. BuildMatrices and Run share one row driver,
// runPhase (one goroutine per source, all randomness keyed by
// (seed, src, dst, salt)), and each completed row is appended to the
// journal together with its BatchStats: the tally of its measurements and
// the source's final simulated clock, breaker count and quarantine
// deadline. A resumed run replays the
// journaled rows into the matrices and the accounting, fast-forwards each
// journaled source's state, and live-measures only the missing rows — so
// the resumed process's matrices AND platform/client stats match an
// uninterrupted same-seed run exactly.
package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"

	"geoloc/internal/atlas"
	"geoloc/internal/cbg"
	"geoloc/internal/checkpoint"
	"geoloc/internal/netsim"
	"geoloc/internal/par"
	"geoloc/internal/rhash"
	"geoloc/internal/world"
)

// Campaign phase names, used as telemetry span suffixes, journal phase
// markers and progress-record phases.
const (
	phaseTargets = "matrix.targets"
	phaseReps    = "matrix.reps"
)

// Matrix tags in journal row records.
const (
	rowMatrixTargets byte = 0
	rowMatrixReps    byte = 1
)

// syncEveryRows is the journal's fsync cadence in appended rows; phase
// seals and Close fsync too. Rows between the last fsync and a crash are
// re-measured on resume, which determinism makes merely redundant.
const syncEveryRows = 8

// RunConfig configures a checkpointed campaign run.
type RunConfig struct {
	// JournalPath is the checkpoint journal file; empty disables
	// journaling (Run still honors its contexts).
	JournalPath string
	// Resume replays an existing journal at JournalPath instead of
	// truncating it. A journal from a different campaign (config hash,
	// seed or profile mismatch) is rejected with checkpoint.ErrMismatch;
	// a damaged one with checkpoint.ErrCorrupt — never silently reused.
	Resume bool
	// Hard, when non-nil, is the hard-cancellation context: it reaches
	// into row measurement and abandons attempts mid-row (client
	// campaigns abandon between attempts with atlas.ErrCanceled). Rows
	// interrupted this way are never journaled. The ctx argument of Run
	// is the soft layer: once canceled, no new row is dispatched, but
	// in-flight rows drain to completion and are journaled, so a SIGINT
	// loses no finished work.
	Hard context.Context
	// OnRowJournaled, when non-nil, is called (serialized) after each
	// live-measured row has been appended to the journal — the
	// kill-point hook the crash/resume tests use.
	OnRowJournaled func(phase string, vp int)
	// Progress, when non-nil, receives one structured "progress" record
	// per ProgressEvery completed rows: rows done / total across both
	// phases, the slowest simulated source clock so far, the remaining
	// simulated seconds that rate projects, and the journal's current
	// size in bytes. Purely observational — it reads the same row
	// accounting the journal records and never affects measurement.
	Progress *slog.Logger
	// ProgressEvery is the row cadence of Progress records (<= 0 with a
	// non-nil Progress reports every row).
	ProgressEvery int
}

// RunResult summarizes a Run.
type RunResult struct {
	// RestoredRows were replayed from the journal; MeasuredRows were
	// measured live.
	RestoredRows, MeasuredRows int
	// Resumed reports whether the journal contributed any restored state.
	Resumed bool
	// Interrupted reports that cancellation stopped the run before every
	// row was measured. The journal holds all completed rows; a later Run
	// with Resume continues.
	Interrupted bool
	// Extra are journal records Run does not consume (e.g. experiment
	// reports appended by cmd/experiments), in journal order.
	Extra []checkpoint.Record
	// Journal is the open journal (nil when journaling is disabled). The
	// caller owns it: append experiment-level records, then Close.
	Journal *checkpoint.Journal
}

// Run executes the bulk ping campaigns crash-safely: it restores journaled
// rows, measures the rest, and journals each completed row. On return
// without error and with Interrupted false, TargetRTT and RepRTT are
// complete and bit-identical to what BuildMatrices would have produced.
//
// ctx is the soft-cancellation layer (drain and checkpoint); RunConfig.Hard
// the hard one (abandon rows). Errors from journal validation wrap the
// named checkpoint errors; callers decide whether to delete and restart.
func (c *Campaign) Run(ctx context.Context, rc RunConfig) (*RunResult, error) {
	r := &phaseRun{soft: ctx, hard: rc.Hard, rc: rc, res: &RunResult{}}
	res := r.res
	if r.hard == nil {
		r.hard = context.Background()
	}
	// Both matrices exist from the start: an interrupted run still has
	// two (partial) matrices for its caller to digest.
	for tag := range phaseNames {
		c.matrix(byte(tag))
	}

	if rc.JournalPath != "" {
		hdr := checkpoint.Header{
			ConfigHash: c.ConfigHash(),
			Seed:       c.W.Cfg.Seed,
			Profile:    c.profileName(),
		}
		var recs []checkpoint.Record
		var err error
		if rc.Resume {
			r.j, recs, err = checkpoint.Open(rc.JournalPath, hdr, c.Metrics)
		} else {
			r.j, err = checkpoint.Create(rc.JournalPath, hdr, c.Metrics)
		}
		if err != nil {
			return nil, err
		}
		res.Journal = r.j
		r.restored = [2]map[int]bool{{}, {}}
		r.digests = make(map[string][sha256.Size]byte)
		for _, rec := range recs {
			switch rec.Kind {
			case checkpoint.KindRow:
				err = c.restoreRow(rec.Payload, r)
			case checkpoint.KindPhase:
				var name string
				var digest [sha256.Size]byte
				if name, digest, err = decodePhase(rec.Payload); err == nil {
					r.digests[name] = digest
				}
			default:
				res.Extra = append(res.Extra, rec)
			}
			if err != nil {
				r.j.Close()
				return nil, err
			}
		}
		res.Resumed = res.RestoredRows > 0 || len(res.Extra) > 0 || len(r.digests) > 0
		// Observational; the authoritative accounting is RunResult.
		c.Metrics.Counter("core.run.rows_restored").Add(int64(res.RestoredRows))
	}

	r.prog = newProgressMeter(rc, 2*len(c.VPs), r.j)
	if r.prog != nil && res.RestoredRows > 0 {
		// Restored rows already advanced the client's simulated clocks;
		// count them done and emit one record so a resumed run starts
		// its reporting from the right place.
		var clk int64
		if c.Client != nil {
			clk = int64(c.Client.Stats().CampaignSec * 1e6)
		}
		r.prog.restored(res.RestoredRows, clk)
	}

	var err error
	for tag := range phaseNames {
		if err = c.runPhase(r, byte(tag)); err != nil || res.Interrupted {
			break
		}
	}
	if r.j != nil {
		if serr := r.j.Sync(); err == nil {
			err = serr
		}
	}
	if err != nil {
		if r.j != nil {
			r.j.Close()
			res.Journal = nil
		}
		return nil, err
	}
	return res, nil
}

// phaseRun is the state one Run threads through its phases. BuildMatrices
// runs a phase with the zero journal, nothing restored and no progress
// meter.
type phaseRun struct {
	soft, hard context.Context
	rc         RunConfig
	j          *checkpoint.Journal
	res        *RunResult
	restored   [2]map[int]bool // by row tag, then vp
	digests    map[string][sha256.Size]byte
	prog       *progressMeter
}

// phaseNames names the phases in run order, indexed by row tag.
var phaseNames = [2]string{rowMatrixTargets: phaseTargets, rowMatrixReps: phaseReps}

// build runs one phase with no journal or cancellation: a phase with
// nothing to append to and nothing to cancel it cannot fail or be
// interrupted.
func (c *Campaign) build(tag byte) {
	bg := context.Background()
	c.runPhase(&phaseRun{soft: bg, hard: bg, res: &RunResult{}}, tag)
}

// matrix returns the tagged phase's matrix, allocating it on first use.
func (c *Campaign) matrix(tag byte) *cbg.Matrix {
	slot := &c.TargetRTT
	if tag == rowMatrixReps {
		slot = &c.RepRTT
	}
	if *slot == nil {
		*slot = cbg.NewMatrix(vpLocations(c.VPs), len(c.Targets), c.Metrics)
	}
	return *slot
}

// runPhase measures every row of one matrix that the journal did not
// restore, one row per par.For item in place order, journaling each
// completed row, and seals the matrix once every row is present. With a
// journal the finished phase is also sealed by a digest record — or, when
// the journal already holds one, must reproduce it. A sealed matrix is
// not measured again.
func (c *Campaign) runPhase(r *phaseRun, tag byte) error {
	m := c.matrix(tag)
	if m.Sealed() {
		return nil
	}
	name := phaseNames[tag]
	defer c.Metrics.StartSpan("phase." + name).End()
	var reps [][]*world.Host
	if tag == rowMatrixReps {
		reps = c.repHosts()
	}

	var mu sync.Mutex // guards r.res, firstErr, and callback serialization
	var firstErr error
	interrupted := func() {
		mu.Lock()
		r.res.Interrupted = true
		mu.Unlock()
	}
	// Rows run in place order (netsim.PlaceOrder): a worker's consecutive
	// rows then share their source's skeletons. The journal records rows
	// in completion order anyway, and resume restores them by VP index.
	order := netsim.PlaceOrder(c.VPs)
	par.For(len(order), func(k int) {
		vp := order[k]
		if r.restored[tag][vp] {
			return
		}
		if r.soft.Err() != nil || r.hard.Err() != nil {
			interrupted()
			return
		}
		var rec atlas.BatchStats
		c.measureRow(r.hard, m, vp, reps, &rec)
		if r.hard.Err() != nil {
			// Hard-canceled mid-row: the row is incomplete and its
			// accounting is not that of a finished batch. Never journal
			// it; the resumed run re-measures it from scratch,
			// deterministically.
			interrupted()
			return
		}
		r.prog.row(name, rec.SrcClockUSec)
		var err error
		if r.j != nil {
			err = r.j.AppendEvery(checkpoint.KindRow, encodeRow(tag, vp, m.RTT[vp], &rec), syncEveryRows)
		}
		mu.Lock()
		defer mu.Unlock()
		r.res.MeasuredRows++
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if err == nil && r.j != nil && r.rc.OnRowJournaled != nil {
			r.rc.OnRowJournaled(name, vp)
		}
	})
	if firstErr != nil || r.res.Interrupted {
		return firstErr
	}

	if r.j != nil {
		digest := MatrixDigest(m)
		if want, ok := r.digests[name]; ok {
			// The journal sealed this phase in a previous run; the restored
			// (plus re-measured) matrix must reproduce it exactly.
			if digest != want {
				return fmt.Errorf(
					"%w: phase %s digest %x does not reproduce journaled %x",
					checkpoint.ErrMismatch, name, digest[:8], want[:8])
			}
		} else if err := r.j.Append(checkpoint.KindPhase, encodePhase(name, digest)); err != nil {
			return err
		} else if err := r.j.Sync(); err != nil {
			return err
		}
	}
	// The matrix is final: freeze it for the analysis phases. An
	// interrupted phase stays unsealed — the resuming run fills the
	// remaining rows and seals.
	m.Seal()
	return nil
}

// progressMeter emits the structured campaign-progress records behind
// RunConfig.Progress. The clock it reports is the slowest simulated
// source clock seen so far — the same quantity ClientStats.CampaignSec
// converges to — so the ETA is a projection in simulated seconds, not
// wall time, and is therefore as deterministic as the campaign itself.
type progressMeter struct {
	lg    *slog.Logger
	every int
	total int
	j     *checkpoint.Journal

	mu        sync.Mutex
	done      int
	clockUSec int64
}

// newProgressMeter returns nil (all methods nil-safe) when progress
// reporting is off.
func newProgressMeter(rc RunConfig, total int, j *checkpoint.Journal) *progressMeter {
	if rc.Progress == nil {
		return nil
	}
	every := rc.ProgressEvery
	if every <= 0 {
		every = 1
	}
	return &progressMeter{lg: rc.Progress, every: every, total: total, j: j}
}

// restored accounts rows replayed from the journal and emits one record
// immediately, regardless of cadence.
func (p *progressMeter) restored(rows int, clockUSec int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done += rows
	if clockUSec > p.clockUSec {
		p.clockUSec = clockUSec
	}
	p.emitLocked("restore")
}

// row accounts one live-measured row (clockUSec is its source's final
// simulated clock; raw-platform campaigns report 0) and emits a record
// at the configured cadence, plus always on the final row.
func (p *progressMeter) row(phase string, clockUSec int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if clockUSec > p.clockUSec {
		p.clockUSec = clockUSec
	}
	if p.done%p.every == 0 || p.done == p.total {
		p.emitLocked(phase)
	}
}

// emitLocked logs one record with p.mu held: the count it reports is the
// one its caller just set, and records reach the logger in that order —
// workers finishing back to back can neither repeat nor skip a count.
func (p *progressMeter) emitLocked(phase string) {
	done := p.done
	simS := float64(p.clockUSec) / 1e6
	attrs := []any{
		slog.String("phase", phase),
		slog.Int("rows_done", done),
		slog.Int("rows_total", p.total),
		slog.Float64("sim_clock_s", simS),
	}
	if done > 0 && done < p.total && simS > 0 {
		attrs = append(attrs, slog.Float64("eta_sim_s", simS*float64(p.total-done)/float64(done)))
	}
	if p.j != nil {
		attrs = append(attrs, slog.Int64("journal_bytes", p.j.Size()))
	}
	p.lg.Info("progress", attrs...)
}

// restoreRow replays one journaled row: matrix cells, platform usage,
// the client's tally, and the source's final state. A row that does not
// fit the campaign — its geometry, or a tally of another layout — is an
// ErrMismatch: the header hash should have caught it, so reaching here
// means the journal lies about itself.
func (c *Campaign) restoreRow(payload []byte, r *phaseRun) error {
	tag, vp, cells, stats, err := decodeRow(payload)
	if err != nil {
		return err
	}
	if int(tag) >= len(phaseNames) {
		return fmt.Errorf("%w: row record for unknown matrix %d", checkpoint.ErrMismatch, tag)
	}
	if vp < 0 || vp >= len(c.VPs) || len(cells) != len(c.Targets) {
		return fmt.Errorf(
			"%w: journaled row (vp=%d, %d cells) does not fit campaign (%d VPs × %d targets)",
			checkpoint.ErrMismatch, vp, len(cells), len(c.VPs), len(c.Targets))
	}
	if r.restored[tag][vp] {
		return nil // duplicate record: first wins
	}
	r.restored[tag][vp] = true
	copy(c.matrix(tag).RTT[vp], cells)
	c.Platform.RestoreStats(&stats)
	if c.Client != nil {
		c.Client.RestoreBatch(c.VPs[vp].ID, &stats)
	}
	r.res.RestoredRows++
	return nil
}

// encodeRow serializes one completed row record:
//
//	matrix u8 | flags u8 | vp u32 | ncells u32 | float32bits×ncells |
//	nfields u16 | int64×nfields (BatchStats, fixed field order)
//
// The flags byte is always 0.
func encodeRow(matrix byte, vp int, cells []float32, rec *atlas.BatchStats) []byte {
	nf := rec.NumFields()
	buf := make([]byte, 0, 2+4+4+4*len(cells)+2+8*nf)
	buf = append(buf, matrix, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(vp))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cells)))
	for _, v := range cells {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(nf))
	for _, v := range rec.Encode(make([]int64, 0, nf)) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// decodeRow parses a row record. Malformed payloads (that nonetheless
// passed the CRC, i.e. written by a different or broken encoder) are
// rejected wrapping checkpoint.ErrCorrupt; a well-formed row with a
// nonzero flags byte (an older build's watchdog-stalled row, whose tail
// cells were never measured) or a tally not NumFields wide was written
// under another layout and is rejected wrapping checkpoint.ErrMismatch.
func decodeRow(payload []byte) (matrix byte, vp int, cells []float32, stats atlas.BatchStats, err error) {
	bad := func(what string) error {
		return fmt.Errorf("%w: row record %s", checkpoint.ErrCorrupt, what)
	}
	if len(payload) < 2+4+4 {
		err = bad("too short")
		return
	}
	matrix = payload[0]
	if payload[1] != 0 {
		err = fmt.Errorf("%w: row record has flags %#x, this build writes 0",
			checkpoint.ErrMismatch, payload[1])
		return
	}
	vp = int(binary.LittleEndian.Uint32(payload[2:]))
	ncells := int(binary.LittleEndian.Uint32(payload[6:]))
	off := 10
	if ncells < 0 || len(payload) < off+4*ncells+2 {
		err = bad("cell count overruns payload")
		return
	}
	cells = make([]float32, ncells)
	for i := range cells {
		cells[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[off+4*i:]))
	}
	off += 4 * ncells
	nf := int(binary.LittleEndian.Uint16(payload[off:]))
	off += 2
	if len(payload) < off+8*nf {
		err = bad("stats fields overrun payload")
		return
	}
	if nf != stats.NumFields() {
		err = fmt.Errorf("%w: row tally has %d fields, this build writes %d",
			checkpoint.ErrMismatch, nf, stats.NumFields())
		return
	}
	vals := make([]int64, nf)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(payload[off+8*i:]))
	}
	stats.DecodeFields(vals)
	return
}

// encodePhase serializes a phase-sealed record: name + result digest.
func encodePhase(name string, digest [sha256.Size]byte) []byte {
	buf := make([]byte, 0, 2+len(name)+sha256.Size)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	return append(buf, digest[:]...)
}

// decodePhase parses a phase-sealed record.
func decodePhase(payload []byte) (name string, digest [sha256.Size]byte, err error) {
	if len(payload) < 2 {
		err = fmt.Errorf("%w: phase record too short", checkpoint.ErrCorrupt)
		return
	}
	n := int(binary.LittleEndian.Uint16(payload))
	if len(payload) != 2+n+sha256.Size {
		err = fmt.Errorf("%w: phase record has wrong length", checkpoint.ErrCorrupt)
		return
	}
	name = string(payload[2 : 2+n])
	copy(digest[:], payload[2+n:])
	return
}

// MatrixDigest hashes a matrix's cells (dimensions included) — the
// equality check behind resume verification and the -digest flag. Two
// matrices digest equal iff they are bit-identical (NaN holes included).
func MatrixDigest(m *cbg.Matrix) [sha256.Size]byte {
	h := sha256.New()
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(m.RTT)))
	h.Write(b[:])
	for _, row := range m.RTT {
		binary.LittleEndian.PutUint32(b[:], uint32(len(row)))
		h.Write(b[:])
		for _, v := range row {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// ConfigHash canonically hashes everything that determines the campaign's
// measurement results: the world config (maps serialized in
// world.AllContinents order — Go map iteration must never leak into the
// hash), the fault profile, and the resilient client's tuning. Journals
// written under one hash are rejected by campaigns with another.
func (c *Campaign) ConfigHash() uint64 {
	var b strings.Builder
	writeCanonicalConfig(&b, c.W.Cfg)
	if c.Client != nil {
		fmt.Fprintf(&b, "|profile=%#v|client=%s", *c.Client.F, atlas.Tuning())
	} else if p := c.FaultProfile(); p != nil {
		fmt.Fprintf(&b, "|profile=%#v|client=raw", *p)
	} else {
		b.WriteString("|profile=none|client=raw")
	}
	return rhash.HashString(b.String())
}

// writeCanonicalConfig serializes a world.Config deterministically: the
// struct's scalar fields via %#v (map fields nil'd out), the maps
// explicitly in world.AllContinents order.
func writeCanonicalConfig(b *strings.Builder, cfg world.Config) {
	scalars := cfg
	scalars.AnchorsPerContinent = nil
	scalars.BadCityFrac = nil
	fmt.Fprintf(b, "%#v", scalars)
	for _, ct := range world.AllContinents {
		fmt.Fprintf(b, "|anchors[%d]=%d", ct, cfg.AnchorsPerContinent[ct])
	}
	for _, ct := range world.AllContinents {
		fmt.Fprintf(b, "|badcity[%d]=%g", ct, cfg.BadCityFrac[ct])
	}
}

// profileName names the campaign's fault profile for the journal header.
func (c *Campaign) profileName() string {
	if p := c.FaultProfile(); p != nil {
		return p.Name
	}
	return "raw"
}
