// Command experiments reproduces the paper's tables and figures and writes
// the reports to stdout and (optionally) a results directory.
//
// Usage:
//
//	experiments [-scale paper] [-run fig5a] [-trials 100] [-out results]
//	            [-faults none] [-checkpoint-dir dir] [-resume] [-digest file]
//	            [-q] [-metrics] [-trace t.json] [-pprof :6060]
//
// With -checkpoint-dir the bulk ping campaigns journal every completed
// batch (and every finished experiment report) to dir/campaign.ckpt; a
// later invocation with -resume replays the journal and continues,
// producing byte-identical matrices and platform stats to an uninterrupted
// run. The first SIGINT drains in-flight batches, flushes the checkpoint,
// and exits 130; a second SIGINT abandons in-flight rows (they are
// re-measured on resume).
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"geoloc/internal/checkpoint"
	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/experiments"
	"geoloc/internal/faults"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	scale := flag.String("scale", "paper", "campaign scale: tiny, medium, paper, or a target count (e.g. 1e6) for the streaming pipeline")
	window := flag.Int("window", dataset.DefaultStreamWindow, "streaming spill window in targets (numeric -scale only)")
	artifact := flag.String("artifact", "", "streaming artifact output path (numeric -scale only; default geodset.bin next to the spill dir)")
	blockSize := flag.Int("block-size", 0, "GEODSET2 records per block (0 = format default)")
	keepSpill := flag.Bool("keep-spill", false, "keep sealed spill runs after a successful streaming compile")
	run := flag.String("run", "", "run only this experiment ID (default: all)")
	trials := flag.Int("trials", 0, "random-subset trials for Fig 2a/2b (0 = library default; the paper uses 100)")
	out := flag.String("out", "", "directory to write per-experiment report files")
	quiet := flag.Bool("q", false, "silence progress logging (reports still go to stdout)")
	faultsName := flag.String("faults", "none", "fault profile for the campaign: none, realistic, degraded, or hostile")
	ckptDir := flag.String("checkpoint-dir", "", "directory for the crash-safety journal (empty disables checkpointing)")
	resume := flag.Bool("resume", false, "resume from an existing journal in -checkpoint-dir instead of starting fresh")
	digestPath := flag.String("digest", "", "write matrix digests and platform stats to this file after the campaign (resume-equivalence checking)")
	killAfter := flag.Int("kill-after-batches", 0, "exit(3) abruptly after this many batches are journaled (crash-testing hook)")
	progressEvery := flag.Int("progress", 0, "emit a structured campaign-progress record every N batches (0 = off; format/level via -log-format/-log-level)")
	tele := telemetry.NewCLI()
	flag.Parse()
	if err := checkFlags(*scale, *window, *ckptDir, *resume,
		count{"block-size", *blockSize}, count{"trials", *trials},
		count{"kill-after-batches", *killAfter}, count{"progress", *progressEvery}); err != nil {
		fmt.Fprintf(flag.CommandLine.Output(), "experiments: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if *quiet {
		log.SetOutput(io.Discard)
	}
	tele.Start()
	defer tele.Finish()

	if n, ok := streamScale(*scale); ok {
		out := *artifact
		if out == "" {
			dir := *ckptDir
			if dir == "" {
				dir = "."
			}
			out = filepath.Join(dir, "geodset.bin")
		}
		runStreamScale(n, *window, out, *blockSize, *ckptDir, *resume, *keepSpill)
		return
	}

	var cfg world.Config
	switch *scale {
	case "tiny":
		cfg = world.TinyConfig()
	case "medium":
		cfg = world.MediumConfig()
	case "paper":
		cfg = world.DefaultConfig()
	default:
		log.Fatalf("unknown scale %q", *scale)
	}
	var prof *faults.Profile
	switch *faultsName {
	case "none":
		prof = nil
	case "realistic":
		prof = faults.Realistic()
	case "degraded":
		prof = faults.Degraded()
	case "hostile":
		prof = faults.Hostile()
	default:
		log.Fatalf("unknown fault profile %q", *faultsName)
	}

	opts := experiments.DefaultOptions()
	if *trials > 0 {
		opts.Fig2Trials = *trials
	}

	// Two-stage cancellation: the first SIGINT stops dispatching batches
	// but drains (and journals) the ones in flight; the second abandons
	// in-flight rows between measurement attempts.
	softCtx, softCancel := context.WithCancel(context.Background())
	hardCtx, hardCancel := context.WithCancel(context.Background())
	defer hardCancel()
	defer softCancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		log.Printf("interrupt: draining in-flight batches and flushing checkpoint (interrupt again to abandon rows)")
		softCancel()
		<-sigc
		log.Printf("second interrupt: abandoning in-flight rows")
		hardCancel()
	}()

	start := time.Now()
	log.Printf("preparing %s-scale campaign (sanitize + matrices)...", *scale)
	var c *core.Campaign
	if prof != nil {
		c = core.NewResilientCampaign(cfg, prof)
	} else {
		c = core.NewCampaign(cfg)
	}
	tele.Attach("campaign", c.Platform.Reg)

	rc := core.RunConfig{Resume: *resume}
	if *progressEvery > 0 {
		rc.Progress = tele.Logger()
		rc.ProgressEvery = *progressEvery
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			log.Fatal(err)
		}
		rc.JournalPath = filepath.Join(*ckptDir, "campaign.ckpt")
	}
	rc.Hard = hardCtx
	if *killAfter > 0 {
		n := 0
		rc.OnRowJournaled = func(phase string, vp int) {
			n++
			if n >= *killAfter {
				// Crash simulation: no journal sync, no cleanup, no defers.
				os.Exit(3)
			}
		}
	}

	runRes, err := c.Run(softCtx, rc)
	if err != nil {
		log.Fatalf("campaign failed: %v", err)
	}
	journal := runRes.Journal
	if runRes.Resumed {
		log.Printf("resumed from checkpoint: %d batches restored, %d measured live",
			runRes.RestoredRows, runRes.MeasuredRows)
	}
	log.Printf("campaign ready in %.1fs; running experiments", time.Since(start).Seconds())

	if *digestPath != "" {
		if err := os.WriteFile(*digestPath, []byte(digestReport(c)), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if runRes.Interrupted {
		if journal != nil {
			if err := journal.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("campaign interrupted; checkpoint flushed (resume with -resume)")
		} else {
			log.Printf("campaign interrupted (no checkpoint configured; progress lost)")
		}
		tele.Finish()
		os.Exit(130)
	}

	ectx := experiments.NewContextFromCampaign(c, opts)

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	// Completed experiment reports journaled by a previous run replay
	// verbatim instead of recomputing.
	restoredReports := make(map[string]string)
	for _, r := range runRes.Extra {
		if r.Kind != checkpoint.KindReport {
			continue
		}
		id, text, err := decodeReport(r.Payload)
		if err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		restoredReports[id] = text
	}

	// Each experiment runs under a recover barrier: a panic in one figure
	// must not discard the reports already written to the results
	// directory. Failures are collected and reported at exit instead.
	var failed []string
	var summary []expSummary
	found := false
	interrupted := false
	for _, e := range experiments.Registry() {
		if *run != "" && e.ID != *run {
			continue
		}
		found = true
		if softCtx.Err() != nil {
			interrupted = true
			break
		}
		var text string
		if cached, ok := restoredReports[e.ID]; ok {
			log.Printf("%s restored from checkpoint", e.ID)
			text = cached
		} else {
			t0 := time.Now()
			before := c.Platform.Stats()
			rep, err := runProtected(e, ectx)
			wall := time.Since(t0).Seconds()
			after := c.Platform.Stats()
			probes := (after.Pings - before.Pings) + (after.Traceroutes - before.Traceroutes)
			if err != nil {
				log.Printf("%s FAILED: %v", e.ID, err)
				failed = append(failed, e.ID)
				continue
			}
			summary = append(summary, expSummary{e.ID, wall, probes})
			log.Printf("%s computed in %.1fs (%d measurements)", e.ID, wall, probes)
			text = rep.Render()
			if journal != nil {
				if err := journal.Append(checkpoint.KindReport, encodeReport(e.ID, text)); err != nil {
					log.Fatal(err)
				}
				if err := journal.Sync(); err != nil {
					log.Fatal(err)
				}
			}
		}
		fmt.Println(text)
		if *out != "" {
			path := filepath.Join(*out, e.ID+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if !found {
		tele.Finish()
		log.Fatalf("unknown experiment %q", *run)
	}
	if interrupted {
		log.Printf("interrupted between experiments; completed reports are checkpointed")
		tele.Finish()
		os.Exit(130)
	}
	if *out != "" && *run == "" {
		// The per-target baseline dataset the paper calls for (§7.1).
		f, err := os.Create(filepath.Join(*out, "baseline_dataset.csv"))
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteBaselineDataset(ectx, f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("baseline dataset written to %s", filepath.Join(*out, "baseline_dataset.csv"))
	}
	for _, s := range summary {
		log.Printf("summary: %-14s %6.1fs  %d measurements", s.id, s.wallSec, s.probes)
	}
	if len(failed) > 0 {
		log.Printf("done in %.1fs; %d experiment(s) failed: %s",
			time.Since(start).Seconds(), len(failed), strings.Join(failed, ", "))
		tele.Finish()
		os.Exit(1)
	}
	log.Printf("done in %.1fs", time.Since(start).Seconds())
}

// count is an integer flag whose zero means default or off and whose
// negative values mean nothing; name is the flag's, for the error.
type count struct {
	name string
	v    int
}

// checkFlags rejects, before any work starts, flag values that cannot
// run: a spill window under one target, a negative count, and -resume on
// a named scale with no journal to resume from (a streaming run's spill
// directory defaults to one next to -artifact).
func checkFlags(scale string, window int, ckptDir string, resume bool, counts ...count) error {
	if window < 1 {
		return fmt.Errorf("-window must be at least 1, got %d", window)
	}
	for _, c := range counts {
		if c.v < 0 {
			return fmt.Errorf("-%s must not be negative, got %d", c.name, c.v)
		}
	}
	if _, stream := streamScale(scale); resume && ckptDir == "" && !stream {
		return errors.New("-resume needs -checkpoint-dir")
	}
	return nil
}

// digestReport renders the campaign's result digests and usage counters —
// the byte-equality witness the resume-equivalence CI job diffs.
func digestReport(c *core.Campaign) string {
	var b strings.Builder
	td, rd := core.MatrixDigest(c.TargetRTT), core.MatrixDigest(c.RepRTT)
	fmt.Fprintf(&b, "target_matrix %x\n", td)
	fmt.Fprintf(&b, "rep_matrix %x\n", rd)
	ps := c.Platform.Stats()
	fmt.Fprintf(&b, "platform pings=%d traceroutes=%d credits=%d\n", ps.Pings, ps.Traceroutes, ps.Credits)
	if c.Client != nil {
		cs := c.Client.Stats()
		fmt.Fprintf(&b, "client measurements=%d succeeded=%d retries=%d failures=%d submit=%d ratelimited=%d stalls=%d timeouts=%d offline=%d quarantines=%d skipq=%d credits=%d campaign_sec=%.6f\n",
			cs.Measurements, cs.Succeeded, cs.Retries, cs.Failures, cs.SubmitErrors,
			cs.RateLimited, cs.Stalls, cs.Timeouts, cs.Offline, cs.Quarantines,
			cs.SkippedQuarantined, cs.CreditsSpent, cs.CampaignSec)
	}
	return b.String()
}

// encodeReport serializes a completed experiment report for the journal.
func encodeReport(id, text string) []byte {
	buf := make([]byte, 0, 2+len(id)+len(text))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(id)))
	buf = append(buf, id...)
	return append(buf, text...)
}

// decodeReport parses a journaled experiment report.
func decodeReport(payload []byte) (id, text string, err error) {
	if len(payload) < 2 {
		return "", "", fmt.Errorf("%w: report record too short", checkpoint.ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint16(payload))
	if len(payload) < 2+n {
		return "", "", fmt.Errorf("%w: report record id truncated", checkpoint.ErrCorrupt)
	}
	return string(payload[2 : 2+n]), string(payload[2+n:]), nil
}

// expSummary is one line of the per-experiment run summary.
type expSummary struct {
	id      string
	wallSec float64
	probes  int64
}

// runProtected runs one experiment under a campaign-phase span, converting
// a panic into an error so one broken figure cannot take down the rest of
// the run.
func runProtected(e experiments.Experiment, ctx *experiments.Context) (rep *experiments.Report, err error) {
	defer telemetry.Default().StartSpan("experiment." + e.ID).End()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return e.Run(ctx), nil
}
