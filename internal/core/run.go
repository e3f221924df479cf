// Crash-safe campaign execution: Run drives the bulk ping campaigns with
// checkpoint journaling, context cancellation, and a watchdog supervisor,
// producing matrices bit-identical to BuildMatrices no matter how often
// the process is killed and resumed in between (DESIGN.md §3.3).
//
// The unit of recovery is one matrix row — one vantage point's batch
// against every target. Rows are measured exactly as BuildMatrices
// measures them (one goroutine per source, all randomness keyed by
// (seed, src, dst, salt)), and each completed row is appended to the
// journal together with its BatchStats: the platform usage it caused,
// every resilience counter it bumped, and the source's final simulated
// clock, breaker count and quarantine deadline. A resumed run replays the
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
	"runtime"
	"strings"
	"sync"
	"time"

	"geoloc/internal/atlas"
	"geoloc/internal/cbg"
	"geoloc/internal/checkpoint"
	"geoloc/internal/rhash"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

// Campaign phase names, used as telemetry span suffixes, journal phase
// markers, and Watchdog.PhaseDeadlineSec keys.
const (
	PhaseTargets = "matrix.targets"
	PhaseReps    = "matrix.reps"
)

// Matrix tags in journal row records.
const (
	rowMatrixTargets byte = 0
	rowMatrixReps    byte = 1
)

// rowFlagStalled marks a row the watchdog cut short; its tail cells are
// Unresponsive by construction, not by measurement.
const rowFlagStalled byte = 1

// Watchdog supervises campaign phases. Deadlines are enforced on the
// simulated clock, which makes them deterministic: a source's clock
// advances only from its own measurement sequence, so whether a row stalls
// is a pure function of the seed and configuration, never of scheduling.
// WallTimeout is the opposite — a real-time safety net for a genuinely
// hung process — and is deliberately nondeterministic; leave it zero in
// any run whose results must be reproducible.
type Watchdog struct {
	// PhaseDeadlineSec maps a phase name (PhaseTargets, PhaseReps) to the
	// absolute simulated-clock ceiling, in seconds, a source may reach
	// while measuring its row of that phase. A row whose source crosses
	// the ceiling is finalized where it stands: measured cells are kept,
	// the rest stay Unresponsive, and downstream estimation (CBG regions,
	// vantage-point selection) proceeds from the covered targets only.
	// Zero or missing entries disable the deadline for that phase.
	// Deadlines only bind campaigns with a resilient client attached —
	// the raw platform has no per-source clock to stall.
	PhaseDeadlineSec map[string]float64
	// WallTimeout, when positive, bounds the real time Run may spend
	// before it stops dispatching new rows (in-flight rows still drain).
	WallTimeout time.Duration
	// OnStall, when non-nil, is called once per stalled row (serialized).
	OnStall func(phase string, vp, srcID int)
}

// deadline returns the phase's simulated-clock ceiling (0 = none).
func (w *Watchdog) deadline(phase string) float64 {
	if w == nil {
		return 0
	}
	return w.PhaseDeadlineSec[phase]
}

// RunConfig configures a checkpointed campaign run.
type RunConfig struct {
	// JournalPath is the checkpoint journal file; empty disables
	// journaling (Run still honors contexts and the watchdog).
	JournalPath string
	// Resume replays an existing journal at JournalPath instead of
	// truncating it. A journal from a different campaign (config hash,
	// seed or profile mismatch) is rejected with checkpoint.ErrMismatch;
	// a damaged one with checkpoint.ErrCorrupt — never silently reused.
	Resume bool
	// SyncEveryRows fsyncs the journal once per this many appended rows
	// (<= 1 syncs every row). Rows between the last fsync and a crash may
	// be re-measured on resume; determinism makes that merely redundant,
	// not wrong.
	SyncEveryRows int
	// Watchdog, when non-nil, supervises the phases.
	Watchdog *Watchdog
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
	// measured live; StalledRows (counted in both) hit their watchdog
	// deadline.
	RestoredRows, MeasuredRows, StalledRows int
	// Resumed reports whether the journal contributed any restored state.
	Resumed bool
	// Interrupted reports that cancellation (or the wall-clock safety
	// net) stopped the run before every row was measured. The journal
	// holds all completed rows; a later Run with Resume continues.
	Interrupted bool
	// Extra are journal records Run does not consume (e.g. experiment
	// reports appended by cmd/experiments), in journal order.
	Extra []checkpoint.Record
	// Journal is the open journal (nil when journaling is disabled). The
	// caller owns it: append experiment-level records, then Close.
	Journal *checkpoint.Journal
}

// metRestored counts matrix rows replayed from a journal instead of
// measured (observational; the authoritative accounting is RunResult).
var metRestored = telemetry.Default().Counter("core.run.rows_restored")

// Run executes the bulk ping campaigns crash-safely: it restores journaled
// rows, measures the rest under the watchdog, and journals each completed
// row. On return without error and with Interrupted false, TargetRTT and
// RepRTT are complete and bit-identical to what BuildMatrices would have
// produced (stalled rows excepted — those are identical to what the same
// deadlines would produce in any run).
//
// ctx is the soft-cancellation layer (drain and checkpoint); RunConfig.Hard
// the hard one (abandon rows). Errors from journal validation wrap the
// named checkpoint errors; callers decide whether to delete and restart.
func (c *Campaign) Run(ctx context.Context, rc RunConfig) (*RunResult, error) {
	res := &RunResult{}
	hard := rc.Hard
	if hard == nil {
		hard = context.Background()
	}
	if rc.Watchdog != nil && rc.Watchdog.WallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rc.Watchdog.WallTimeout)
		defer cancel()
	}

	locs := vpLocations(c.VPs)
	if c.TargetRTT == nil {
		c.TargetRTT = cbg.NewMatrix(locs, len(c.Targets))
	}
	if c.RepRTT == nil {
		c.RepRTT = cbg.NewMatrix(locs, len(c.Targets))
	}

	var j *checkpoint.Journal
	restoredT := make(map[int]bool)
	restoredR := make(map[int]bool)
	phaseDigests := make(map[string][sha256.Size]byte)
	if rc.JournalPath != "" {
		hdr := checkpoint.Header{
			ConfigHash: c.ConfigHash(),
			Seed:       c.W.Cfg.Seed,
			Profile:    c.profileName(),
		}
		var recs []checkpoint.Record
		var err error
		if rc.Resume {
			j, recs, err = checkpoint.Open(rc.JournalPath, hdr)
		} else {
			j, err = checkpoint.Create(rc.JournalPath, hdr)
		}
		if err != nil {
			return nil, err
		}
		res.Journal = j
		for _, r := range recs {
			switch r.Kind {
			case checkpoint.KindRow:
				if err := c.restoreRow(r.Payload, restoredT, restoredR, res); err != nil {
					j.Close()
					return nil, err
				}
			case checkpoint.KindPhase:
				name, digest, err := decodePhase(r.Payload)
				if err != nil {
					j.Close()
					return nil, err
				}
				phaseDigests[name] = digest
			default:
				res.Extra = append(res.Extra, r)
			}
		}
		res.Resumed = res.RestoredRows > 0 || len(res.Extra) > 0 || len(phaseDigests) > 0
		metRestored.Add(int64(res.RestoredRows))
	}

	prog := newProgressMeter(rc, 2*len(c.VPs), j)
	if prog != nil && res.RestoredRows > 0 {
		// Restored rows already advanced the client's simulated clocks;
		// count them done and emit one record so a resumed run starts
		// its reporting from the right place.
		var clk int64
		if c.Client != nil {
			clk = int64(c.Client.Stats().CampaignSec * 1e6)
		}
		prog.restored(res.RestoredRows, clk)
	}

	err := c.runPhase(ctx, hard, PhaseTargets, rowMatrixTargets, c.TargetRTT,
		restoredT, rc, j, res, phaseDigests, prog,
		func(hctx context.Context, vp int, rec *atlas.BatchStats, deadline float64) bool {
			return c.measureTargetRow(hctx, c.TargetRTT, vp, rec, deadline)
		})
	if err == nil && !res.Interrupted {
		reps := c.repHosts()
		err = c.runPhase(ctx, hard, PhaseReps, rowMatrixReps, c.RepRTT,
			restoredR, rc, j, res, phaseDigests, prog,
			func(hctx context.Context, vp int, rec *atlas.BatchStats, deadline float64) bool {
				return c.measureRepRow(hctx, c.RepRTT, vp, reps, rec, deadline)
			})
	}
	if j != nil {
		if serr := j.Sync(); err == nil {
			err = serr
		}
	}
	if err != nil {
		if j != nil {
			j.Close()
			res.Journal = nil
		}
		return nil, err
	}
	if !res.Interrupted {
		// Both matrices are final: freeze them for the analysis phases. An
		// interrupted run leaves them unsealed — the resuming run fills the
		// remaining rows and seals.
		c.TargetRTT.Seal()
		c.RepRTT.Seal()
	}
	return res, nil
}

// runPhase measures every not-yet-restored row of one matrix, journaling
// each completed row, and seals the phase with a digest record once all
// rows are present.
func (c *Campaign) runPhase(
	ctx, hard context.Context,
	name string, matrix byte, m *cbg.Matrix,
	restored map[int]bool,
	rc RunConfig, j *checkpoint.Journal, res *RunResult,
	phaseDigests map[string][sha256.Size]byte,
	prog *progressMeter,
	measure func(ctx context.Context, vp int, rec *atlas.BatchStats, deadline float64) bool,
) error {
	defer telemetry.Default().StartSpan("phase." + name).End()
	deadline := rc.Watchdog.deadline(name)

	var mu sync.Mutex // guards res, firstErr, and callback serialization
	var firstErr error
	var wg sync.WaitGroup
	workers := phaseWorkers(len(c.VPs))
	next := make(chan int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for vp := range next {
				rec := &atlas.BatchStats{}
				stalled := measure(hard, vp, rec, deadline)
				if hard.Err() != nil {
					// Hard-canceled mid-row: the row is incomplete and its
					// accounting is not that of a finished batch. Never
					// journal it; the resumed run re-measures it from
					// scratch, deterministically.
					mu.Lock()
					res.Interrupted = true
					mu.Unlock()
					continue
				}
				mu.Lock()
				res.MeasuredRows++
				if stalled {
					res.StalledRows++
					if rc.Watchdog != nil && rc.Watchdog.OnStall != nil {
						rc.Watchdog.OnStall(name, vp, c.VPs[vp].ID)
					}
				}
				mu.Unlock()
				prog.row(name, rec.SrcClockUSec)
				if j != nil {
					payload := encodeRow(matrix, vp, m.RTT[vp], stalled, rec)
					err := j.AppendEvery(checkpoint.KindRow, payload, rc.SyncEveryRows)
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					if err == nil && rc.OnRowJournaled != nil {
						rc.OnRowJournaled(name, vp)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for vp := range c.VPs {
		if restored[vp] {
			continue
		}
		if ctx.Err() != nil || hard.Err() != nil {
			// Workers also set Interrupted (under mu) while still draining
			// the channel, so this write needs the same lock.
			mu.Lock()
			res.Interrupted = true
			mu.Unlock()
			break
		}
		next <- vp
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if res.Interrupted {
		return nil
	}

	digest := MatrixDigest(m)
	if want, ok := phaseDigests[name]; ok {
		// The journal sealed this phase in a previous run; the restored
		// (plus re-measured) matrix must reproduce it exactly.
		if digest != want {
			return fmt.Errorf(
				"%w: phase %s digest %x does not reproduce journaled %x",
				checkpoint.ErrMismatch, name, digest[:8], want[:8])
		}
		return nil
	}
	if j != nil {
		if err := j.Append(checkpoint.KindPhase, encodePhase(name, digest)); err != nil {
			return err
		}
		return j.Sync()
	}
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

// phaseWorkers mirrors parallelRows' worker-count policy.
func phaseWorkers(rows int) int {
	w := runtime.GOMAXPROCS(0)
	if w > rows {
		w = rows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// restoreRow replays one journaled row: matrix cells, platform usage,
// client resilience counters, and the source's final state. Geometry that
// does not fit the campaign is an ErrMismatch — the header hash should
// have caught it, so reaching here means the journal lies about itself.
func (c *Campaign) restoreRow(payload []byte, restoredT, restoredR map[int]bool, res *RunResult) error {
	matrix, vp, cells, stalled, stats, err := decodeRow(payload)
	if err != nil {
		return err
	}
	var m *cbg.Matrix
	var restored map[int]bool
	switch matrix {
	case rowMatrixTargets:
		m, restored = c.TargetRTT, restoredT
	case rowMatrixReps:
		m, restored = c.RepRTT, restoredR
	default:
		return fmt.Errorf("%w: row record for unknown matrix %d", checkpoint.ErrMismatch, matrix)
	}
	if vp < 0 || vp >= len(c.VPs) || len(cells) != len(c.Targets) {
		return fmt.Errorf(
			"%w: journaled row (vp=%d, %d cells) does not fit campaign (%d VPs × %d targets)",
			checkpoint.ErrMismatch, vp, len(cells), len(c.VPs), len(c.Targets))
	}
	if restored[vp] {
		return nil // duplicate record: first wins
	}
	restored[vp] = true
	copy(m.RTT[vp], cells)
	c.Platform.RestoreStats(stats.Pings, stats.Traceroutes, stats.Credits)
	if c.Client != nil {
		c.Client.RestoreBatch(c.VPs[vp].ID, &stats)
	}
	res.RestoredRows++
	if stalled {
		res.StalledRows++
	}
	return nil
}

// encodeRow serializes one completed row record:
//
//	matrix u8 | flags u8 | vp u32 | ncells u32 | float32bits×ncells |
//	nfields u16 | int64×nfields (BatchStats, fixed field order)
func encodeRow(matrix byte, vp int, cells []float32, stalled bool, rec *atlas.BatchStats) []byte {
	nf := rec.NumFields()
	buf := make([]byte, 0, 2+4+4+4*len(cells)+2+8*nf)
	buf = append(buf, matrix, 0)
	if stalled {
		buf[1] |= rowFlagStalled
	}
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
// rejected wrapping checkpoint.ErrCorrupt.
func decodeRow(payload []byte) (matrix byte, vp int, cells []float32, stalled bool, stats atlas.BatchStats, err error) {
	bad := func(what string) error {
		return fmt.Errorf("%w: row record %s", checkpoint.ErrCorrupt, what)
	}
	if len(payload) < 2+4+4 {
		err = bad("too short")
		return
	}
	matrix = payload[0]
	stalled = payload[1]&rowFlagStalled != 0
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
		fmt.Fprintf(&b, "|profile=%#v|client=%#v", *c.Client.F, c.Client.Cfg)
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
