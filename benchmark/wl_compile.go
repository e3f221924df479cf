package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"geoloc/internal/cbg"
	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/ipaddr"
	"geoloc/internal/world"
)

// compile-stream op counts: one round is one spill window (the resume
// granularity), and a window takes about a fifth of a reference second. The
// warm-up is the set-up here (building the Tiny campaign takes 25 ms), and it
// lives inside the one CompileExternal call, so "setting up several times"
// means three groups of eight warm-up windows, of which setup_s counts the
// median group.
const (
	compileWindow           = 4096
	compileWarmWindows      = 8 // per repetition of the set-up
	compileSetupReps        = 3
	compileWindowsPerSecond = 5
	compileFindChecks       = 1000
)

// tracedSource wraps the dataset.Source handed to CompileExternal. While on,
// it folds every MeasureTarget call of the current window into a call count
// and a busy time; while off it adds one atomic load per target.
type tracedSource struct {
	src                   dataset.Source
	on                    atomic.Bool
	calls, busyNs         atomic.Int64
	firstStart, lastEndNs atomic.Int64
	t0                    time.Time
}

func (t *tracedSource) NumTargets() int { return t.src.NumTargets() }

func (t *tracedSource) MeasureTarget(i int, buf []cbg.Measurement) (ipaddr.Prefix24, []cbg.Measurement) {
	if !t.on.Load() {
		return t.src.MeasureTarget(i, buf)
	}
	start := time.Since(t.t0)
	p, ms := t.src.MeasureTarget(i, buf)
	end := time.Since(t.t0)
	t.firstStart.CompareAndSwap(0, int64(start))
	t.lastEndNs.Store(int64(end))
	t.busyNs.Add(int64(end - start))
	t.calls.Add(1)
	return p, ms
}

// take returns and clears the window's aggregate.
func (t *tracedSource) take() (calls, busy, first, last int64) {
	return t.calls.Swap(0), t.busyNs.Swap(0), t.firstStart.Swap(0), t.lastEndNs.Swap(0)
}

func runCompileStream(h *harness) error {
	windows := h.seconds * compileWindowsPerSecond
	const warm = compileSetupReps * compileWarmWindows
	total := (warm + windows) * compileWindow

	var sc *core.StreamCampaign
	if err := h.step("campaign", func() error {
		cfg := world.TinyConfig()
		if h.seed != 0 {
			cfg.Seed = h.seed
		}
		var err error
		sc, err = core.NewStreamCampaign(core.NewCampaign(cfg), core.StreamSpec{Targets: total})
		return err
	}); err != nil {
		return err
	}

	var src dataset.Source = sc
	var ts *tracedSource
	if h.tr != nil {
		ts = &tracedSource{src: sc, t0: processStart}
		src = ts
	}
	var mergeT0 time.Time
	var mergeCalBefore float64
	onSpilled := func(w int) error {
		switch {
		case w < warm-1:
			h.stepEnd()
			if (w+1)%compileWarmWindows == 0 {
				h.nextSetupRep()
			}
			h.stepBegin("warmup")
		case w == warm-1:
			h.stepEnd()
			h.beginMeasure("dataset.window")
		default:
			if ts != nil && ts.on.Load() {
				calls, busy, first, last := ts.take()
				h.tr.add(span{Name: "core.measure_target", ID: int64(len(h.slices)), Parent: h.curSpan,
					Start: first, End: last, Count: calls, BusyNs: busy})
			}
			h.sliceEnd(compileWindow, nil)
		}
		if w < warm-1 {
			return nil
		}
		if r := w - warm + 1; r < windows {
			traced := ts != nil && r%2 == 0
			if ts != nil {
				ts.on.Store(traced)
			}
			h.sliceStart(r, traced)
		} else {
			h.endMeasure()
			mergeCalBefore = h.lastMs
			h.fresh = false
			mergeT0 = time.Now()
		}
		return nil
	}

	path := filepath.Join(h.tmpDir, "compile.geodset2")
	h.nextSetupRep()
	h.stepBegin("warmup")
	stats, err := dataset.CompileExternal(path, src, dataset.CampaignHeader(sc.C), dataset.Options{}, nil,
		dataset.StreamConfig{
			Window: compileWindow, SpillDir: filepath.Join(h.tmpDir, "spill"), V2: true,
			OnWindowSpilled: onSpilled,
		})
	if err != nil {
		return fmt.Errorf("CompileExternal: %w", err)
	}
	mergeNs := float64(time.Since(mergeT0))
	h.calibrate()
	mergeS := mergeNs * speedFactor(mergeCalBefore, h.lastMs) / 1e9

	if stats.Records > 0 {
		h.artifactBytesPerOp = float64(stats.ArtifactBytes) / float64(stats.Records)
	}
	h.layer["dataset.merge.wall_s"] = mergeS
	h.layer["dataset.merge.records_per_s"] = float64(stats.Records) / mergeS
	h.layer["checkpoint.spill_bytes_per_op"] = float64(stats.SpillBytes) / float64(stats.Targets)
	h.layer["dataset.compile.windows"] = float64(stats.Windows)
	h.layer["dataset.compile.records"] = float64(stats.Records)
	h.layer["dataset.compile.blocks"] = float64(stats.Blocks)
	var cpu, wall float64
	for _, s := range h.slices {
		cpu += float64(s.cpuNs)
		wall += float64(s.wallNs)
	}
	h.layer["par.efficiency"] = cpu / (wall * procs)
	if h.tr != nil {
		// A traced window's span carries the window's CPU time as busy time
		// and has one child: the folded MeasureTarget calls. The window's self
		// busy time is therefore everything the compiler did itself.
		spans := h.tr.snapshot()
		var calls, busyRef, selfRef float64
		for i, self := range selfBusyNs(spans) {
			switch sp := spans[i]; sp.Name { // both kinds carry their slice's index as ID
			case "core.measure_target":
				calls += float64(sp.Count)
				busyRef += float64(sp.BusyNs) * h.slices[sp.ID].k()
			case "dataset.window":
				selfRef += float64(self) * h.slices[sp.ID].k()
			}
		}
		h.layer["core.measure_target.calls"] = calls
		h.layer["core.measure_target.busy_us_per_op"] = busyRef / calls / 1e3
		h.layer["dataset.spill.self_us_per_op"] = selfRef / calls / 1e3
	}

	recs, err := verifyCompiled(h, path, stats, total, warm+windows)
	if err != nil {
		return err
	}
	if h.tr != nil {
		ns, err := peelWriter2(h, recs, dataset.CampaignHeader(sc.C))
		if err != nil {
			return err
		}
		h.layer["dataset.writer2.add_ns_per_record"] = ns
	}
	return nil
}

// verifyCompiled reopens the artifact through the mapped reader and checks it
// against StreamStats, its own ordering invariant and a linear-scan oracle.
// Every disagreement is a failed op.
func verifyCompiled(h *harness, path string, stats dataset.StreamStats, targets, windows int) ([]dataset.Record, error) {
	if stats.Targets != targets || stats.Windows != windows || stats.WindowsReused != 0 {
		h.fail(1, "StreamStats targets=%d windows=%d reused=%d, want %d/%d/0",
			stats.Targets, stats.Windows, stats.WindowsReused, targets, windows)
	}
	r2, err := dataset.OpenMapped(path)
	if err != nil {
		return nil, fmt.Errorf("reopen artifact: %w", err)
	}
	defer r2.Close()
	if r2.NumRecords() != stats.Records {
		h.fail(1, "NumRecords %d, StreamStats.Records %d", r2.NumRecords(), stats.Records)
	}
	if r2.NumBlocks() != stats.Blocks {
		h.fail(1, "NumBlocks %d, StreamStats.Blocks %d", r2.NumBlocks(), stats.Blocks)
	}
	recs := make([]dataset.Record, 0, stats.Records)
	if err := r2.All(func(r dataset.Record) error {
		if n := len(recs); n > 0 && recs[n-1].Prefix >= r.Prefix {
			h.fail(1, "record %d prefix %v not above %v", n, r.Prefix, recs[n-1].Prefix)
		}
		recs = append(recs, r)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("scan artifact: %w", err)
	}
	if len(recs) != stats.Records || len(recs) == 0 {
		h.fail(1, "All yielded %d records, StreamStats.Records %d", len(recs), stats.Records)
		return recs, nil
	}
	// Seeded Finds: half aimed at records, half anywhere in the covered
	// range (mostly hits too, since streamed prefixes are dense).
	rng := newRNG(h.seed, 0xF1D)
	lo, hi := r2.Range()
	for i := 0; i < compileFindChecks; i++ {
		var a ipaddr.Addr
		if i%2 == 0 {
			a = recs[rng.intn(len(recs))].Prefix.Addr(byte(rng.next()))
		} else {
			a = ipaddr.Prefix24(uint32(lo) + uint32(rng.intn(int(hi-lo)+2))).Addr(byte(rng.next()))
		}
		got, ok, err := r2.Find(a)
		var want dataset.Record
		var wantOK bool
		for _, r := range recs {
			if r.Prefix.Contains(a) {
				want, wantOK = r, true
				break
			}
		}
		if err != nil || ok != wantOK || got != want {
			h.fail(1, "Find(%v) = %+v,%v,%v; linear scan %+v,%v", a, got, ok, err, want, wantOK)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sum := sha256.New()
	if _, err := io.Copy(sum, f); err != nil {
		return nil, err
	}
	h.note("artifact sha256=%x bytes=%d records=%d blocks=%d find_checks=%d",
		sum.Sum(nil), stats.ArtifactBytes, stats.Records, stats.Blocks, compileFindChecks)
	return recs, nil
}

// peelWriter2 replays the artifact's records into a fresh Writer2: the cost
// of the format encoder alone, without measurement, spill or merge.
func peelWriter2(h *harness, recs []dataset.Record, hdr dataset.Header) (float64, error) {
	var werr error
	ns := h.peel("dataset.writer2", len(recs), func() {
		w, err := dataset.NewWriter2(filepath.Join(h.tmpDir, "rewrite.geodset2"), hdr, 0)
		if err != nil {
			werr = err
			return
		}
		for _, r := range recs {
			if err := w.Add(r); err != nil {
				w.Abort()
				werr = err
				return
			}
		}
		_, werr = w.Finish()
	})
	if werr != nil {
		return 0, fmt.Errorf("Writer2 peel: %w", werr)
	}
	return ns, nil
}
