// The accounting half of the load proof: with -metrics-check geobench
// scrapes GET /metrics before and after the run and requires the
// server's data-plane status ledger to move by EXACTLY the client-side
// ledger — every request the client sent is accounted once on the
// server, by status code, with nothing extra and nothing missing. Against
// a single geoserve the latency histogram must also move by exactly the
// client's data-plane answers other than 429, so sheds are proven absent
// from it (the router keeps no histogram). A malformed exposition, a
// missing geoserve.swaps increment across the hot-swap, or any
// discrepancy is a violation (-strict exits non-zero).
//
// The server increments its ledger after the response is flushed, so the
// final few counts can land microseconds after the client has its
// answers; the check retries the scrape briefly before calling a
// mismatch real.
package main

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"geoloc/internal/obs"
)

// metricsSettle bounds how long the after-run scrape retries for the
// server ledger to catch up with responses already delivered.
const metricsSettle = 2 * time.Second

// statusMetric names the data-plane ledger metric for the tier under
// test: geoserve's own when load-testing a single server, the router's
// when running the chaos proof against a fleet.
func statusMetric(cfg Config) string {
	if cfg.Chaos {
		return "georouter_status_total"
	}
	return "geoserve_status_total"
}

// serverCounts is one /metrics reading of what the accounting compares.
type serverCounts struct {
	ledger map[string]int64 // data-plane status ledger, code → count
	swaps  int64            // geoserve_swaps_total
	timed  int64            // geoserve_latency_ms_count
}

// scrapeLedger fetches and lint-parses /metrics, returning the
// data-plane status ledger under the given metric name, the swap counter
// and the latency histogram's count.
func scrapeLedger(client *http.Client, base, metric string) (serverCounts, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return serverCounts{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serverCounts{}, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	sc, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return serverCounts{}, fmt.Errorf("malformed exposition: %w", err)
	}
	c := serverCounts{ledger: map[string]int64{}}
	for _, s := range sc.Find(metric, map[string]string{"plane": "data"}) {
		c.ledger[s.Labels["code"]] += int64(s.Value)
	}
	for _, s := range sc.Find("geoserve_swaps_total", nil) {
		c.swaps += int64(s.Value)
	}
	for _, s := range sc.Find("geoserve_latency_ms_count", nil) {
		c.timed += int64(s.Value)
	}
	return c, nil
}

// ledgerDelta subtracts the before-run ledger from the after-run one.
func ledgerDelta(before, after map[string]int64) map[string]int64 {
	delta := map[string]int64{}
	for code, n := range after {
		if d := n - before[code]; d != 0 {
			delta[code] = d
		}
	}
	for code := range before {
		if _, seen := after[code]; !seen {
			delta[code] = -before[code]
		}
	}
	return delta
}

// ledgerMismatches compares the server's data-plane delta against the
// client ledger and lists every discrepancy (empty = exact match).
func ledgerMismatches(client map[string]int, server map[string]int64) []string {
	codes := map[string]bool{}
	for c := range client {
		codes[c] = true
	}
	for c := range server {
		codes[c] = true
	}
	sorted := make([]string, 0, len(codes))
	for c := range codes {
		sorted = append(sorted, c)
	}
	sort.Strings(sorted)
	var out []string
	for _, c := range sorted {
		if int64(client[c]) != server[c] {
			out = append(out, fmt.Sprintf("status %s: client ledger %d, server ledger moved %d",
				c, client[c], server[c]))
		}
	}
	return out
}

// checkMetrics runs the full accounting pass after the load run,
// appending violations to the report. before is the pre-run scrape.
func checkMetrics(client *http.Client, cfg Config, rep *Report, before serverCounts) {
	if rep.Dropped > 0 {
		// A dropped request may or may not have reached the server, so
		// exact accounting is undefined; the drop itself is already a
		// violation.
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("metrics accounting skipped: %d dropped requests make the ledger comparison undefined", rep.Dropped))
		return
	}

	deadline := time.Now().Add(metricsSettle)
	var mismatches []string
	for {
		after, err := scrapeLedger(client, cfg.BaseURL, statusMetric(cfg))
		if err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("metrics scrape after run: %v", err))
			return
		}
		delta := ledgerDelta(before.ledger, after.ledger)
		mismatches = ledgerMismatches(rep.Statuses, delta)
		if !cfg.Chaos {
			want := int64(0)
			for code, n := range rep.Statuses {
				if code != "429" {
					want += int64(n)
				}
			}
			if got := after.timed - before.timed; got != want {
				mismatches = append(mismatches, fmt.Sprintf(
					"geoserve_latency_ms_count moved %d, client saw %d data-plane answers other than 429", got, want))
			}
		}
		if len(mismatches) == 0 {
			rep.ServerStatuses = map[string]int{}
			for code, n := range delta {
				rep.ServerStatuses[code] = int(n)
			}
			rep.MetricsChecked = true
			if rep.SwapPerformed && after.swaps-before.swaps < 1 {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("hot-swap performed but geoserve.swaps moved %d (before %d, after %d)",
						after.swaps-before.swaps, before.swaps, after.swaps))
			}
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, m := range mismatches {
		rep.Violations = append(rep.Violations, "metrics accounting: "+m)
	}
}
