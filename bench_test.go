package geoloc

// The benchmark harness regenerates every table and figure of the paper
// (one Benchmark per artifact, per DESIGN.md §4) on a medium-scale world,
// plus the ablation benches of DESIGN.md §6. Each figure benchmark measures
// the cost of computing that experiment from prepared matrices; accuracy
// metrics the paper reports are attached via b.ReportMetric so `go test
// -bench` output doubles as a miniature reproduction table.

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"geoloc/internal/cbg"
	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/experiments"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/stats"
	"geoloc/internal/streetlevel"
	"geoloc/internal/telemetry"
	"geoloc/internal/vpsel"
	"geoloc/internal/world"
)

var (
	benchOnce     sync.Once
	benchCampaign *core.Campaign
)

// benchSetup prepares one shared medium-scale campaign for all benchmarks.
func benchSetup(b *testing.B) *core.Campaign {
	b.Helper()
	benchOnce.Do(func() {
		c := core.NewCampaign(world.MediumConfig())
		c.BuildMatrices()
		benchCampaign = c
	})
	return benchCampaign
}

// freshCtx wraps the shared campaign in an uncached experiment context so
// each benchmark iteration performs the real computation.
func freshCtx(b *testing.B) *experiments.Context {
	return experiments.NewContextFromCampaign(benchSetup(b), experiments.QuickOptions())
}

// benchExperiment times one experiment function. The explicit GC drains
// garbage left by whichever benchmark ran before this one — with
// -benchtime 1x a single collection triggered by a predecessor's heap
// otherwise lands inside the measured window and dominates run-to-run
// noise.
func benchExperiment(b *testing.B, f func(*experiments.Context) *experiments.Report) {
	benchSetup(b)
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := f(freshCtx(b))
		if len(rep.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, experiments.Table1) }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, experiments.Table2) }
func BenchmarkFig2a(b *testing.B)    { benchExperiment(b, experiments.Fig2a) }
func BenchmarkFig2b(b *testing.B)    { benchExperiment(b, experiments.Fig2b) }
func BenchmarkFig2c(b *testing.B)    { benchExperiment(b, experiments.Fig2c) }
func BenchmarkFig3a(b *testing.B)    { benchExperiment(b, experiments.Fig3a) }
func BenchmarkFig3b(b *testing.B)    { benchExperiment(b, experiments.Fig3b) }
func BenchmarkFig3c(b *testing.B)    { benchExperiment(b, experiments.Fig3c) }
func BenchmarkFig4(b *testing.B)     { benchExperiment(b, experiments.Fig4) }
func BenchmarkFig5a(b *testing.B)    { benchExperiment(b, experiments.Fig5a) }
func BenchmarkFig5b(b *testing.B)    { benchExperiment(b, experiments.Fig5b) }
func BenchmarkFig5c(b *testing.B)    { benchExperiment(b, experiments.Fig5c) }
func BenchmarkFig6a(b *testing.B)    { benchExperiment(b, experiments.Fig6a) }
func BenchmarkFig6b(b *testing.B)    { benchExperiment(b, experiments.Fig6b) }
func BenchmarkFig6c(b *testing.B)    { benchExperiment(b, experiments.Fig6c) }
func BenchmarkFig7(b *testing.B)     { benchExperiment(b, experiments.Fig7) }
func BenchmarkFig8(b *testing.B)     { benchExperiment(b, experiments.Fig8) }
func BenchmarkBaseline(b *testing.B) { benchExperiment(b, experiments.Baseline) }

func BenchmarkDeploy(b *testing.B)       { benchExperiment(b, experiments.Deploy) }
func BenchmarkMultiStep(b *testing.B)    { benchExperiment(b, experiments.MultiStep) }
func BenchmarkShortestPing(b *testing.B) { benchExperiment(b, experiments.ShortestPing) }
func BenchmarkAblations(b *testing.B)    { benchExperiment(b, experiments.Ablations) }

// BenchmarkAnalysisPass is the analysis-suite workload's pass, metered: it
// builds a Medium campaign that meters into its own registry, runs one
// unmeasured warm-up pass, then per iteration runs every registry
// experiment on a fresh Context (so shared results are recomputed, as in
// the workload) and reports, per experiment and pass, the heap objects it
// allocated (runtime.MemStats.Mallocs, process-wide) and the route
// skeletons it found in, and built into, netsim's table. This is the
// analysis row's allocation split in ROADMAP; `make alloc-table` runs it.
func BenchmarkAnalysisPass(b *testing.B) {
	reg := telemetry.New()
	c := core.NewResilientCampaign(world.MediumConfig(), nil, reg)
	c.BuildMatrices()
	hits := reg.Counter("netsim.route_skeleton_hits")
	misses := reg.Counter("netsim.route_skeleton_misses")
	registry := experiments.Registry()
	allocs := make([]uint64, len(registry))
	hit := make([]int64, len(registry))
	miss := make([]int64, len(registry))
	pass := func(measured bool) {
		ctx := experiments.NewContextFromCampaign(c, experiments.QuickOptions())
		var ms runtime.MemStats
		for e, x := range registry {
			runtime.ReadMemStats(&ms)
			m0, h0, s0 := ms.Mallocs, hits.Value(), misses.Value()
			if rep := x.Run(ctx); len(rep.Rows) == 0 {
				b.Fatalf("%s produced no rows", x.ID)
			}
			runtime.ReadMemStats(&ms)
			if measured {
				allocs[e] += ms.Mallocs - m0
				hit[e] += hits.Value() - h0
				miss[e] += misses.Value() - s0
			}
		}
	}
	pass(false)
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass(true)
	}
	b.StopTimer()
	n := float64(b.N)
	var total uint64
	for e, x := range registry {
		total += allocs[e]
		b.ReportMetric(float64(allocs[e])/n, x.ID+"-allocs/pass")
		b.ReportMetric(float64(hit[e])/n, x.ID+"-skeleton-hits/pass")
		b.ReportMetric(float64(miss[e])/n, x.ID+"-skeleton-misses/pass")
	}
	b.ReportMetric(float64(total)/n, "allocs/pass")
	b.ReportMetric(float64(total)/n/float64(len(registry)), "allocs/experiment")
}

// BenchmarkChaos measures the full fault-intensity sweep: five resilient
// campaigns (world generation, sanitization under holes, retried matrix
// builds, CBG) on the tiny world. It is the cost of one `-run chaos`.
// The attached metrics are campaign-registry totals of the last iteration
// (they are identical every iteration — the sweep is deterministic), so
// the output records the resilience workload alongside the timing.
func BenchmarkChaos(b *testing.B) {
	var retries, credits, failures int64
	for i := 0; i < b.N; i++ {
		rows := experiments.ChaosSweep(world.TinyConfig(), nil)
		if len(rows) == 0 {
			b.Fatal("chaos produced no rows")
		}
		retries, credits, failures = 0, 0, 0
		for _, r := range rows {
			retries += r.Retries
			credits += r.CreditsSpent
			failures += r.Failures
		}
	}
	b.ReportMetric(float64(retries), "retries")
	b.ReportMetric(float64(failures), "failures")
	b.ReportMetric(float64(credits), "credits")
}

// BenchmarkCBGLocate measures the core CBG primitive: locating one target
// from the full vantage-point matrix.
func BenchmarkCBGLocate(b *testing.B) {
	c := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti := i % len(c.Targets)
		if _, ok := c.TargetRTT.LocateSubset(ti, nil, geo.TwoThirdsC); !ok {
			b.Fatal("empty region")
		}
	}
}

// BenchmarkStreetLevelGeolocate measures one full three-tier run.
func BenchmarkStreetLevelGeolocate(b *testing.B) {
	c := benchSetup(b)
	pipe := streetlevel.New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Geolocate(i % len(c.Targets))
	}
}

// writeBench2 stores the compiled dataset as an artifact file for the
// on-disk serving benchmarks.
func writeBench2(b *testing.B, ds *dataset.Dataset) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.geodset2")
	if err := ds.Write(path); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkLookup2Parallel measures concurrent GEODSET2 lookups: compile
// the medium campaign, write it as an artifact file, then hammer Find from
// GOMAXPROCS goroutines the way cmd/geoserve does under load. The query
// mix alternates covered addresses and misses so both branches stay hot;
// hits and misses of the final run are attached so the output records the
// mix alongside the timing. Every block is a slice of the shared read-only
// mapping, verified once on first touch, so goroutines share no mutable
// state at all.
func BenchmarkLookup2Parallel(b *testing.B) {
	c := benchSetup(b)
	ds := dataset.Compile(c, dataset.Options{})
	r2, err := dataset.Open2(writeBench2(b, ds))
	if err != nil {
		b.Fatal(err)
	}
	defer r2.Close()
	queries := make([]ipaddr.Addr, 0, 2*len(ds.Records))
	for i, r := range ds.Records {
		queries = append(queries, r.Prefix.Addr(byte(i))) // covered
		queries = append(queries, ipaddr.Addr(0xC0000200+uint32(i)))
	}
	var hits, misses int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var h, m int64
		var i int
		for pb.Next() {
			_, ok, err := r2.Find(queries[i%len(queries)])
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				h++
			} else {
				m++
			}
			i++
		}
		atomic.AddInt64(&hits, h)
		atomic.AddInt64(&misses, m)
	})
	b.ReportMetric(float64(atomic.LoadInt64(&hits)), "hits")
	b.ReportMetric(float64(atomic.LoadInt64(&misses)), "misses")
	b.ReportMetric(boolMetric(r2.Mapped()), "mapped")
}

// boolMetric renders a capability flag as a 0/1 benchmark metric.
func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkFullFind drives uniform-random concurrent Find over an
// out-of-tree GEODSET2 artifact named by the GEODSET2_PATH environment
// variable (skipped when unset) — the access pattern a public lookup
// service sees at full-routable-IPv4 scale: no locality, working set =
// the whole artifact. This is the harness behind results/full-ipv4.txt.
func BenchmarkFullFind(b *testing.B) {
	path := os.Getenv("GEODSET2_PATH")
	if path == "" {
		b.Skip("GEODSET2_PATH not set: point it at a GEODSET2 artifact")
	}
	r2, err := dataset.Open2(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r2.Close()
	lo, hi := r2.Range()
	base := uint64(lo) * 256
	span := (uint64(hi)-uint64(lo)+1)*256 - 1
	var hits int64
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Per-goroutine splitmix-style stream so workers never collide.
		x := uint64(worker.Add(1)) * 0x9E3779B97F4A7C15
		var h int64
		for pb.Next() {
			x = x*6364136223846793005 + 1442695040888963407
			a := ipaddr.Addr(base + (x>>11)%span)
			_, ok, err := r2.Find(a)
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				h++
			}
		}
		atomic.AddInt64(&hits, h)
	})
	b.ReportMetric(float64(atomic.LoadInt64(&hits)), "hits")
	b.ReportMetric(boolMetric(r2.Mapped()), "mapped")
}

// BenchmarkPing measures the simulator's measurement primitive.
func BenchmarkPing(b *testing.B) {
	c := benchSetup(b)
	src := c.VPs[0]
	dst := c.Targets[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Sim.Ping(src, dst, uint64(i))
	}
}

// BenchmarkAblationRegionFiltering compares CBG centroid computation with
// redundant-circle filtering (the fast path used everywhere) against the
// naive all-circles region (DESIGN.md §6).
func BenchmarkAblationRegionFiltering(b *testing.B) {
	c := benchSetup(b)
	b.Run("filtered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.TargetRTT.LocateSubset(i%len(c.Targets), nil, geo.TwoThirdsC)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ti := i % len(c.Targets)
			var region geo.Region
			for vp, rtt := range c.TargetRTT.Column(ti) {
				if cbg.IsUnresponsive(rtt) {
					continue
				}
				region.Add(geo.Circle{
					Center:   c.TargetRTT.VPs[vp],
					RadiusKm: geo.RTTToDistanceKm(float64(rtt), geo.TwoThirdsC),
				})
			}
			region.Centroid()
		}
	})
}

// BenchmarkAblationSOI compares tier-1 CBG accuracy at the two
// speed-of-Internet constants the replicated papers use (DESIGN.md §6).
func BenchmarkAblationSOI(b *testing.B) {
	c := benchSetup(b)
	rows := c.AnchorVPIndices()
	for _, tc := range []struct {
		name  string
		speed float64
	}{
		{"two-thirds-c", geo.TwoThirdsC},
		{"four-ninths-c", geo.FourNinthsC},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var errs []float64
			for i := 0; i < b.N; i++ {
				ti := i % len(c.Targets)
				if est, ok := c.TargetRTT.LocateSubset(ti, rows, tc.speed); ok {
					errs = append(errs, c.ErrorKm(ti, est))
				}
			}
			if len(errs) > 0 {
				b.ReportMetric(stats.MustMedian(errs), "medianErrKm")
			}
		})
	}
}

// BenchmarkAblationGreedyVsRandom compares the two-step algorithm's greedy
// Earth-covering first step against a random first step (DESIGN.md §6).
func BenchmarkAblationGreedyVsRandom(b *testing.B) {
	c := benchSetup(b)
	locs := make([]geo.Point, len(c.VPs))
	meta := make([]vpsel.VPMeta, len(c.VPs))
	for i, h := range c.VPs {
		locs[i] = h.Reported
		meta[i] = vpsel.VPMeta{AS: h.AS, City: h.City}
	}
	greedy := vpsel.GreedyCover(locs, 10)
	random := make([]int, 10)
	for i := range random {
		random[i] = (i * 997) % len(c.VPs)
	}
	for _, tc := range []struct {
		name      string
		firstStep []int
	}{
		{"greedy", greedy},
		{"random", random},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var errs []float64
			for i := 0; i < b.N; i++ {
				ti := i % len(c.Targets)
				res, ok := vpsel.TwoStepSelect(c.RepRTT, meta, tc.firstStep, ti)
				if !ok {
					continue
				}
				if est, ok := c.TargetRTT.LocateSubset(ti, []int{res.SelectedVP}, geo.TwoThirdsC); ok {
					errs = append(errs, c.ErrorKm(ti, est))
				}
			}
			if len(errs) > 0 {
				b.ReportMetric(stats.MustMedian(errs), "medianErrKm")
			}
		})
	}
}

// BenchmarkAblationDelayAgg compares the papers' min-over-VPs landmark
// delay aggregation against a median aggregation (DESIGN.md §6).
func BenchmarkAblationDelayAgg(b *testing.B) {
	c := benchSetup(b)
	for _, agg := range []string{"min", "median"} {
		b.Run(agg, func(b *testing.B) {
			pipe := streetlevel.NewWithConfig(c, streetlevel.Config{DelayAggregation: agg})
			var errs []float64
			for i := 0; i < b.N; i++ {
				ti := i % len(c.Targets)
				res := pipe.Geolocate(ti)
				errs = append(errs, geo.Distance(res.Estimate, c.Targets[ti].Loc))
			}
			if len(errs) > 0 {
				b.ReportMetric(stats.MustMedian(errs), "medianErrKm")
			}
		})
	}
}
