package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"geoloc/internal/core"
	"geoloc/internal/dataset"
)

// runStreamScale measures targets /24s in bounded windows, spills each
// window as a sealed checkpoint run, and k-way merges the runs into a
// GEODSET2 artifact. Peak memory is proportional to the window, not to
// targets — the property the dataset memory-ceiling test pins.
func runStreamScale(targets int, window int, artifact string, blockSize int, ckptDir string, resume, keepSpill bool) {
	start := time.Now()
	log.Printf("streaming campaign: %d targets, window %d", targets, window)

	src, err := core.NewStreamScale(targets)
	if err != nil {
		log.Fatalf("stream spec: %v", err)
	}

	spill := ckptDir
	if spill == "" {
		spill = filepath.Join(filepath.Dir(artifact), "spill")
	}
	if err := os.MkdirAll(spill, 0o755); err != nil {
		log.Fatal(err)
	}

	windows := (targets + window - 1) / window
	lastLog := time.Now()
	cfg := dataset.StreamConfig{
		Window:    window,
		SpillDir:  spill,
		Resume:    resume,
		KeepSpill: keepSpill,
		BlockSize: blockSize,
		OnWindowSpilled: func(w int) error {
			if time.Since(lastLog) >= 5*time.Second || w == windows-1 {
				lastLog = time.Now()
				log.Printf("window %d/%d spilled (%.1f%%)", w+1, windows, 100*float64(w+1)/float64(windows))
			}
			return nil
		},
	}
	stats, err := dataset.CompileExternal(artifact, src, dataset.StreamHeader(src), dataset.Options{}, nil, cfg)
	if err != nil {
		log.Fatalf("streaming compile failed: %v", err)
	}
	elapsed := time.Since(start)
	priced, pruned := src.PricedPruned()
	fmt.Print(streamReport(artifact, stats, elapsed, priced, pruned, len(src.C.VPs)))
}

// streamReport renders the run's stats; experiments -out and the
// results/ ledger both consume this block verbatim. priced and pruned
// are the campaign's VP-selection counters (core.StreamCampaign.
// PricedPruned): VPs taken to the haversine, per measured target.
func streamReport(artifact string, s dataset.StreamStats, elapsed time.Duration, priced, pruned int64, vps int) string {
	perTarget := "none measured (every window reused)"
	if priced+pruned > 0 {
		perTarget = fmt.Sprintf("%.1f of %d", float64(priced)/float64(priced+pruned)*float64(vps), vps)
	}
	return fmt.Sprintf(`streaming campaign complete
  targets:        %d
  records:        %d
  windows:        %d (%d reused from prior spill)
  spill bytes:    %d
  artifact:       %s
  artifact bytes: %d
  format:         GEODSET2 (%d blocks)
  wall time:      %.1fs (%.0f targets/s)
  VPs priced per target: %s
`, s.Targets, s.Records, s.Windows, s.WindowsReused, s.SpillBytes,
		artifact, s.ArtifactBytes, s.Blocks, elapsed.Seconds(),
		float64(s.Targets)/elapsed.Seconds(), perTarget)
}
