// geobench is the deterministic closed-loop load generator for geoserve:
// the harness that PROVES the serving tier's robustness claims instead of
// asserting them in prose.
//
// It drives a seeded mix of hits, misses and garbage at a fixed worker
// count, optionally rotates a new artifact mid-run through the guarded
// admin endpoint, and renders a verdict: a per-status ledger,
// p50/p99/p999 latency of admitted requests, and a violations list
// (dropped requests, off-design statuses, a missing swap-generation
// bump, an overload run that never shed). With -strict any violation is
// a non-zero exit — which is how CI's load-smoke job gates on "zero
// dropped or erroneously-failed requests across an artifact hot-swap".
//
//	geobench -addr http://127.0.0.1:8080 -dataset a.geodset \
//	    -requests 20000 -workers 8 \
//	    -swap-after 10000 -swap-to b.geodset -admin-token s3cret \
//	    -strict -out ledger.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"geoloc/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("geobench: ")

	var cfg Config
	flag.StringVar(&cfg.BaseURL, "addr", "http://127.0.0.1:8080", "base URL of the geoserve under test")
	flag.StringVar(&cfg.DatasetPath, "dataset", "", "baseline artifact the hit/miss mix is derived from (required)")
	flag.IntVar(&cfg.Requests, "requests", 10000, "total requests across all workers")
	flag.IntVar(&cfg.Workers, "workers", 8, "closed-loop worker count")
	flag.Uint64Var(&cfg.Seed, "seed", 20231024, "seed for the deterministic request mix")
	flag.Float64Var(&cfg.HitFrac, "hit-frac", 0.70, "weight of covered-address lookups in the mix")
	flag.Float64Var(&cfg.MissFrac, "miss-frac", 0.20, "weight of uncovered-address lookups in the mix")
	flag.Float64Var(&cfg.GarbageFrac, "garbage-frac", 0.10, "weight of malformed inputs in the mix")
	flag.IntVar(&cfg.BatchEvery, "batch-every", 16, "every Nth request is a POST /batch (0 = lookups only)")
	flag.IntVar(&cfg.BatchSize, "batch-size", 8, "addresses per batch request")
	flag.IntVar(&cfg.SwapAfter, "swap-after", 0, "trigger one artifact hot-swap after this many completed requests (0 = none)")
	flag.StringVar(&cfg.SwapTo, "swap-to", "", "artifact path sent to /admin/reload for the mid-run swap")
	flag.StringVar(&cfg.AdminToken, "admin-token", "", "token for /admin/reload")
	flag.DurationVar(&cfg.Timeout, "timeout", 10*time.Second, "per-request client timeout; slower requests count as dropped")
	flag.DurationVar(&cfg.WaitReady, "wait-ready", 0, "poll /readyz for up to this long before starting")
	flag.BoolVar(&cfg.ExpectShed, "expect-shed", false, "fail the run if no request was shed with 429 (overload proofs)")
	flag.Float64Var(&cfg.MaxP999Ms, "max-p999-ms", 0, "fail the run if admitted p999 latency exceeds this bound (0 = no bound)")
	flag.BoolVar(&cfg.Allow503, "allow-503", false, "admit 503 as a designed answer (fault-injecting profiles)")
	flag.BoolVar(&cfg.MetricsCheck, "metrics-check", false, "scrape /metrics before and after and require the server ledger to match the client ledger exactly (and, against geoserve, the latency histogram to count every answer but the 429s)")
	flag.BoolVar(&cfg.Chaos, "chaos", false,
		"replica-chaos proof against a geoserve -router fleet: kill and revive a replica mid-run, require zero drops, window-confined 503s, and exact failover accounting")
	flag.IntVar(&cfg.KillAfter, "kill-after", 0, "completed requests before the chaos kill (0 = requests/4)")
	flag.IntVar(&cfg.RestartAfter, "restart-after", 0, "completed requests before the chaos revival (0 = requests/2)")
	outPath := flag.String("out", "", "write the JSON report here")
	strict := flag.Bool("strict", false, "exit non-zero when the run has any violation")
	var logFormat, logLevel string
	telemetry.RegisterLogFlags(&logFormat, &logLevel)
	flag.Parse()

	if cfg.DatasetPath == "" {
		log.Fatal("-dataset is required (the hit/miss mix is derived from the artifact)")
	}

	rep, err := Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

	printSummary(rep)
	// The stdout summary is for humans; violations also go to the
	// structured log so CI pipelines can grep one record per failure.
	if len(rep.Violations) > 0 {
		lg := telemetry.NewLogger(os.Stderr, logFormat, logLevel)
		for _, v := range rep.Violations {
			lg.Warn("violation", "detail", v, "strict", *strict)
		}
	}
	if *strict && len(rep.Violations) > 0 {
		os.Exit(1)
	}
}

// printSummary renders the human verdict.
func printSummary(rep *Report) {
	rps := float64(rep.Requests)
	if rep.Elapsed > 0 {
		rps = float64(rep.Requests) / rep.Elapsed
	}
	fmt.Printf("geobench: %d requests, %d workers, %.2fs (%.0f req/s)\n",
		rep.Requests, rep.Workers, rep.Elapsed, rps)
	codes := make([]string, 0, len(rep.Statuses))
	for c := range rep.Statuses {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	fmt.Printf("  ledger:")
	for _, c := range codes {
		fmt.Printf(" %s=%d", c, rep.Statuses[c])
	}
	fmt.Printf(" dropped=%d\n", rep.Dropped)
	fmt.Printf("  latency (admitted, n=%d): p50=%.2fms p99=%.2fms p999=%.2fms\n",
		rep.Admitted, rep.P50Ms, rep.P99Ms, rep.P999Ms)
	if rep.SwapPerformed {
		fmt.Printf("  hot-swap: generation %d -> %d, records %d -> %d\n",
			rep.GenBefore, rep.GenAfter, rep.RecordsBefore, rep.RecordsAfter)
	}
	if rep.Sheds > 0 {
		fmt.Printf("  shed: %d requests answered 429\n", rep.Sheds)
	}
	if rep.MetricsChecked {
		fmt.Println("  metrics: server data-plane ledger matches client ledger exactly")
	}
	if rep.ChaosPerformed {
		fmt.Printf("  chaos: replica %d killed at %.2fs, re-admitted at %.2fs; failovers=%d 503s=%d\n",
			rep.ChaosReplica, rep.KillAtSec, rep.ReadmitAtSec,
			rep.ClientFailovers, rep.Statuses["503"])
	}
	if len(rep.Violations) == 0 {
		fmt.Println("  verdict: CLEAN")
		return
	}
	fmt.Println("  verdict: VIOLATIONS")
	for _, v := range rep.Violations {
		fmt.Printf("    - %s\n", v)
	}
}
