package main

import (
	"encoding/json"
	"io"
)

// The metric and workload tables. BENCHMARK.json at the repository root is
// this file's tables rendered by `-spec`; a test keeps the two identical.

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change is rejected; per-layer metrics have none,
	// and BENCHMARK.json then omits the key.
	Bound float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*harness) error
}

// runSeconds is how long the measured phase of a run lasts at reference
// speed; every op count below is a fixed multiple of it, never a clock.
const runSeconds = 12

var workloads = []workloadDef{
	{"compile-stream", "write path: stream campaign -> external-merge compile -> GEODSET2; core, cbg/geo, checkpoint spill, merge and Writer2 do all the work, serve and router none", runCompileStream},
	{"analysis-suite", "reproduce the paper: all 23 registry experiments over a Medium campaign; touches no dataset or serving code, so it must not move when they change", runAnalysisSuite},
	{"lookup-routed", "single GET /lookup through router + 2 replicas, 80% hits; rounds alternate a 128-prefix hot set that fits the ipindex LRU with uniform draws that do not; per-request overhead dominates", runLookupRouted},
	{"batch-direct", "POST /batch of 256 uniform IPs against one mmap GEODSET2 server of 4M records; transport amortised, so body decode, Reader2.Find and the JSON encoder dominate", runBatchDirect},
}

// timeBound is the bound of every time-based metric: the contract's maximum.
// On the recorded host identical code spreads 2-7 % (quartiles, after
// normalisation; 5-29 % before) from run to run, and a bound has to be about
// three times the spread it is judged against (README, "Bounds").
const timeBound = 0.25

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", timeBound},
	{"ops_per_ref_s", "1/s", "higher", timeBound},
	{"cpu_ref_us_per_op", "us", "lower", timeBound},
	{"allocs_per_op", "count", "lower", 0.06},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"artifact_bytes_per_op", "B", "lower", 0.002},
}

// experimentIDs is experiments.Registry() in canonical order; the
// analysis-suite workload fails if the registry no longer matches.
var experimentIDs = []string{
	"table1", "table2", "fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c", "fig4",
	"fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c", "fig7", "fig8", "baseline",
	"deploy", "multistep", "shortestping", "ablations", "chaos",
}

var perLayer = func() []metricDef {
	ms := []metricDef{
		// harness, all workloads
		{Name: "bench.speed_factor_p50", Unit: "ratio", Better: "higher"},
		{Name: "bench.speed_factor_min", Unit: "ratio", Better: "higher"},
		{Name: "bench.speed_factor_max", Unit: "ratio", Better: "higher"},
		{Name: "bench.ref_cpu_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "bench.ref_http_rps_p50", Unit: "1/s", Better: "higher"},
		{Name: "bench.ref_share", Unit: "ratio", Better: "lower"},
		{Name: "bench.raw_ops_per_s", Unit: "1/s", Better: "higher"},
		{Name: "bench.raw_p50_us", Unit: "us", Better: "lower"},
		{Name: "bench.raw_p90_us", Unit: "us", Better: "lower"},
		{Name: "bench.raw_cpu_us_per_op", Unit: "us", Better: "lower"},
		{Name: "bench.raw_setup_s", Unit: "s", Better: "lower"},
		{Name: "bench.p50_ref_us", Unit: "us", Better: "lower"},
		{Name: "bench.p90_ref_us", Unit: "us", Better: "lower"},
		{Name: "bench.p99_ref_us", Unit: "us", Better: "lower"},
		{Name: "bench.p999_ref_us", Unit: "us", Better: "lower"},
		{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
		{Name: "setup.campaign_s", Unit: "s", Better: "lower"},
		{Name: "setup.artifact_s", Unit: "s", Better: "lower"},
		{Name: "setup.open_publish_s", Unit: "s", Better: "lower"},
		{Name: "setup.fleet_s", Unit: "s", Better: "lower"},
		{Name: "setup.warmup_s", Unit: "s", Better: "lower"},
		// compile-stream
		{Name: "core.measure_target.busy_us_per_op", Unit: "us", Better: "lower"},
		{Name: "core.measure_target.calls", Unit: "count", Better: "lower"},
		{Name: "dataset.spill.self_us_per_op", Unit: "us", Better: "lower"},
		{Name: "dataset.merge.wall_s", Unit: "s", Better: "lower"},
		{Name: "dataset.merge.records_per_s", Unit: "1/s", Better: "higher"},
		{Name: "dataset.writer2.add_ns_per_record", Unit: "ns", Better: "lower"},
		{Name: "checkpoint.spill_bytes_per_op", Unit: "B", Better: "lower"},
		{Name: "dataset.compile.windows", Unit: "count", Better: "higher"},
		{Name: "dataset.compile.records", Unit: "count", Better: "higher"},
		{Name: "dataset.compile.blocks", Unit: "count", Better: "lower"},
		{Name: "par.efficiency", Unit: "ratio", Better: "higher"},
		// analysis-suite
		{Name: "core.new_campaign_s", Unit: "s", Better: "lower"},
		{Name: "core.build_matrices_s", Unit: "s", Better: "lower"},
	}
	for _, id := range experimentIDs {
		ms = append(ms, metricDef{Name: "experiments." + id + ".ref_ms", Unit: "ms", Better: "lower"})
	}
	return append(ms,
		metricDef{Name: "experiments.street_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "cbg.locate_us_per_op", Unit: "us", Better: "lower"},
		metricDef{Name: "streetlevel.geolocate_ms_per_op", Unit: "ms", Better: "lower"},
		metricDef{Name: "vpsel.two_step_us_per_op", Unit: "us", Better: "lower"},
		metricDef{Name: "netsim.ping_us_per_op", Unit: "us", Better: "lower"},
		// lookup-routed
		metricDef{Name: "lookup.local.ops_per_ref_s", Unit: "1/s", Better: "higher"},
		metricDef{Name: "lookup.scattered.ops_per_ref_s", Unit: "1/s", Better: "higher"},
		metricDef{Name: "lookup.local.p50_ref_us", Unit: "us", Better: "lower"},
		metricDef{Name: "lookup.scattered.p50_ref_us", Unit: "us", Better: "lower"},
		metricDef{Name: "ipaddr.parse_ns_per_op", Unit: "ns", Better: "lower"},
		metricDef{Name: "router.replica_for_ns_per_op", Unit: "ns", Better: "lower"},
		metricDef{Name: "ipindex.cache_hit_share.local", Unit: "ratio", Better: "higher"},
		metricDef{Name: "ipindex.cache_hit_share.scattered", Unit: "ratio", Better: "higher"},
		metricDef{Name: "ipindex.lookup_ns_per_op", Unit: "ns", Better: "lower"},
		metricDef{Name: "ipindex.lookup_uncached_ns_per_op", Unit: "ns", Better: "lower"},
		metricDef{Name: "ipindex.lookup_scattered_ns_per_op", Unit: "ns", Better: "lower"},
		metricDef{Name: "ipindex.lookup_scattered_uncached_ns_per_op", Unit: "ns", Better: "lower"},
		metricDef{Name: "serve.handler_us_per_op", Unit: "us", Better: "lower"},
		metricDef{Name: "serve.handler_allocs_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "serve.loopback_us_per_op", Unit: "us", Better: "lower"},
		metricDef{Name: "router.loopback_us_per_op", Unit: "us", Better: "lower"},
		metricDef{Name: "serve.self_us", Unit: "us", Better: "lower"},
		metricDef{Name: "http.transport_us", Unit: "us", Better: "lower"},
		metricDef{Name: "router.hop_us", Unit: "us", Better: "lower"},
		metricDef{Name: "serve.vs_ref_http", Unit: "ratio", Better: "lower"},
		metricDef{Name: "http.response_bytes_per_op", Unit: "B", Better: "lower"},
		metricDef{Name: "serve.hits", Unit: "count", Better: "higher"},
		metricDef{Name: "serve.misses", Unit: "count", Better: "higher"},
		metricDef{Name: "serve.shed", Unit: "count", Better: "lower"},
		metricDef{Name: "serve.deadline_expired", Unit: "count", Better: "lower"},
		metricDef{Name: "router.failovers", Unit: "count", Better: "lower"},
		metricDef{Name: "router.hedges", Unit: "count", Better: "lower"},
		metricDef{Name: "router.hedge_wins", Unit: "count", Better: "lower"},
		metricDef{Name: "router.retries", Unit: "count", Better: "lower"},
		metricDef{Name: "router.range_unavailable", Unit: "count", Better: "lower"},
		// batch-direct
		metricDef{Name: "dataset.find.mapped_ns_per_op", Unit: "ns", Better: "lower"},
		metricDef{Name: "dataset.find.pread_ns_per_op", Unit: "ns", Better: "lower"},
		metricDef{Name: "dataset.find.hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "dataset.open_mapped_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "dataset.open2_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.reload_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.batch_handler_us_per_ip", Unit: "us", Better: "lower"},
		metricDef{Name: "serve.batch_handler_allocs_per_ip", Unit: "count", Better: "lower"},
		metricDef{Name: "serve.batch_loopback_us_per_ip", Unit: "us", Better: "lower"},
		metricDef{Name: "serve.batch_self_us_per_ip", Unit: "us", Better: "lower"},
		metricDef{Name: "http.batch_transport_us_per_ip", Unit: "us", Better: "lower"},
	)
}()

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// writeSpec renders BENCHMARK.json.
func writeSpec(w io.Writer) error {
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}
