package main

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"

	"geoloc/internal/ipaddr"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 100}, {99.9, 100}, {10, 10}, {10.1, 20}, {0.001, 10}, {100, 100},
	} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 50); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	// Odd count: p50 is the true middle sample.
	if got := percentile([]float64{1, 2, 3, 4, 5}, 50); got != 3 {
		t.Errorf("p50 of 5 = %v, want 3", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	if got := median(vs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if vs[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	q1, q2, q3 = quartiles([]float64{8, 1, 4, 2})
	if !near(q1, 1.25) || !near(q2, 3) || !near(q3, 7) {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSpeedFactor(t *testing.T) {
	// Host at reference speed: durations unchanged.
	if k := speedFactor(refCPUNominalMs, refCPUNominalMs); k != 1 {
		t.Errorf("k = %v", k)
	}
	// Host twice as slow on both calibrations: durations halve.
	if k := speedFactor(2*refCPUNominalMs, 2*refCPUNominalMs); k != 0.5 {
		t.Errorf("k = %v", k)
	}
	// The two bracketing calibrations are averaged.
	if k := speedFactor(refCPUNominalMs-10, refCPUNominalMs+10); k != 1 {
		t.Errorf("k = %v", k)
	}
}

// Three rounds of identical work; the host is 2x slow during the second and
// 4x slow in one slice of the third. Normalised results must not notice.
func TestResultsOnSyntheticTimings(t *testing.T) {
	ms := int64(time.Millisecond)
	const n = refCPUNominalMs
	h := &harness{layer: map[string]float64{}, artifactBytesPerOp: 30}
	h.steps = []setupStep{{"init", 0.5, 1, -1}, {"campaign", 2, 0.5, -1}, {"warmup", 1, 2, -1}, {"warmup", 1, 1, -1}}
	h.slices = []sliceRec{
		{round: 0, ops: 100, wallNs: 100 * ms, cpuNs: 150 * ms, mallocs: 1000, calBefore: n, calAfter: n, samples: []int64{1 * ms, 3 * ms}},
		{round: 1, ops: 100, wallNs: 200 * ms, cpuNs: 300 * ms, mallocs: 1000, calBefore: 2 * n, calAfter: 2 * n, samples: []int64{2 * ms, 6 * ms}},
		{round: 2, ops: 50, wallNs: 50 * ms, cpuNs: 75 * ms, mallocs: 500, calBefore: n, calAfter: n, samples: []int64{1 * ms}},
		{round: 2, ops: 50, wallNs: 200 * ms, cpuNs: 300 * ms, mallocs: 500, calBefore: 3 * n, calAfter: 5 * n, samples: []int64{12 * ms}},
	}
	h.cals = []float64{n, n, 2 * n, 2 * n, n, 4 * n, 5 * n}
	h.refNs, h.measureNs = 100*ms, 1000*ms

	rounds := h.rounds()
	if len(rounds) != 3 {
		t.Fatalf("%d rounds, want 3", len(rounds))
	}
	for i, r := range rounds {
		if r.ops != 100 || !near(r.refNs, float64(100*ms)) || !near(r.cpuRefNs, float64(150*ms)) {
			t.Errorf("round %d: ops=%d refNs=%v cpuRefNs=%v", i, r.ops, r.refNs, r.cpuRefNs)
		}
	}
	if !near(rounds[2].rawNs, float64(250*ms)) {
		t.Errorf("round 2 rawNs = %v", rounds[2].rawNs)
	}

	e2e, layer, samples := h.results()
	if samples != 6 {
		t.Errorf("samples = %d", samples)
	}
	for name, want := range map[string]float64{
		"setup_s":               0.5 + 1 + 2 + 1,
		"ops_per_ref_s":         1000,
		"cpu_ref_us_per_op":     1500,
		"allocs_per_op":         10,
		"artifact_bytes_per_op": 30,
	} {
		if !near(e2e[name], want) {
			t.Errorf("%s = %v, want %v", name, e2e[name], want)
		}
	}
	for name, want := range map[string]float64{
		"setup.campaign_s":        1,
		"setup.warmup_s":          3,
		"bench.p50_ref_us":        1000, // ref samples: 1,1,1,3,3,3 ms
		"bench.p90_ref_us":        3000,
		"bench.raw_ops_per_s":     500, // median raw round: 200 ms per 100 ops
		"bench.raw_p50_us":        2000,
		"bench.raw_p90_us":        12000,
		"bench.speed_factor_min":  0.25,
		"bench.speed_factor_max":  1,
		"bench.speed_factor_p50":  0.75,
		"bench.ref_share":         0.1,
		"bench.ref_cpu_ms_p50":    2 * n,
		"bench.raw_setup_s":       4.5,
		"bench.raw_cpu_us_per_op": 3000,
	} {
		if !near(layer[name], want) {
			t.Errorf("%s = %v, want %v", name, layer[name], want)
		}
	}
	if _, ok := layer["setup.init_s"]; ok {
		t.Error("init must count towards setup_s only")
	}
}

// Three repetitions of a two-step set-up after one step that runs once:
// setup_s and the setup.* layers count the once-step plus the repetition
// whose total is the median, whole.
func TestSetupCountsTheMedianRepetition(t *testing.T) {
	h := &harness{layer: map[string]float64{}, rep: -1}
	h.steps = []setupStep{
		{"init", 0.25, 1, -1},
		{"artifact", 3, 1, 0}, {"warmup", 4, 1, 0}, // cold: 7
		{"artifact", 1, 1, 1}, {"warmup", 1, 1, 1}, // 2
		{"artifact", 4, 0.5, 2}, {"warmup", 1, 1, 2}, // 3 at reference speed: the median
	}
	e2e, layer, _ := h.results()
	if !near(e2e["setup_s"], 0.25+2+1) || !near(layer["setup.artifact_s"], 2) || !near(layer["setup.warmup_s"], 1) || !near(layer["bench.raw_setup_s"], 0.25+4+1) {
		t.Errorf("setup_s=%v artifact=%v warmup=%v raw=%v", e2e["setup_s"], layer["setup.artifact_s"], layer["setup.warmup_s"], layer["bench.raw_setup_s"])
	}
	if got := h.stepRefS("artifact"); !near(got, 2) {
		t.Errorf("stepRefS(artifact) = %v, want the median repetition's 2", got)
	}
	// nextSetupRep numbers the steps that follow it; beginMeasure ends the last one.
	h = &harness{cpu: newCPUKernel(), layer: map[string]float64{}, rep: -1}
	h.calibrate()
	noop := func() error { return nil }
	h.step("campaign", noop)
	h.nextSetupRep()
	h.step("warmup", noop)
	h.nextSetupRep()
	h.step("warmup", noop)
	h.beginMeasure("x")
	if h.steps[0].rep != -1 || h.steps[1].rep != 0 || h.steps[2].rep != 1 || h.rep != -1 {
		t.Errorf("steps = %+v, rep after beginMeasure = %d", h.steps, h.rep)
	}
}

func TestTraceOverheadFromAlternatingRounds(t *testing.T) {
	ms := int64(time.Millisecond)
	h := &harness{layer: map[string]float64{}}
	for r := 0; r < 6; r++ {
		wall := 100 * ms
		if r%2 == 0 {
			wall = 105 * ms
		}
		h.slices = append(h.slices, sliceRec{round: r, traced: r%2 == 0, ops: 10, wallNs: wall, calBefore: refCPUNominalMs, calAfter: refCPUNominalMs})
	}
	_, layer, _ := h.results()
	if !near(layer["bench.trace_overhead_frac"], 0.05) {
		t.Errorf("trace overhead = %v, want 0.05", layer["bench.trace_overhead_frac"])
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "window", Parent: -1, Start: 0, End: 100, BusyNs: 180},
		{Name: "measure", Parent: 0, Start: 10, End: 40, BusyNs: 50},
		{Name: "measure", Parent: 0, Start: 30, End: 60, BusyNs: 50}, // overlaps the first child
		{Name: "write", Parent: 0, Start: 90, End: 120},              // reaches past the parent
		{Name: "inner", Parent: 1, Start: 15, End: 20},
	}
	wall := selfWallNs(spans)
	// window: 100 - [10,60] - [90,100] = 40; first measure: 30 - 5.
	for i, want := range []int64{40, 25, 30, 30, 5} {
		if wall[i] != want {
			t.Errorf("self wall of span %d = %d, want %d", i, wall[i], want)
		}
	}
	busy := selfBusyNs(spans)
	if busy[0] != 80 || busy[1] != 50 {
		t.Errorf("self busy = %v", busy)
	}
}

func TestTracerAndTraceFile(t *testing.T) {
	tr := newTracer(time.Now())
	root := tr.begin("round", 7, -1)
	tr.add(span{Name: "client.lookup", ID: 1, Parent: root, Start: 1, End: 2})
	tr.end(root)
	tr.setBusy(root, 3, 99)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].End < spans[0].Start || spans[0].Count != 3 || spans[0].BusyNs != 99 {
		t.Fatalf("spans = %+v", spans)
	}
	path := t.TempDir() + "/out/trace.json"
	if err := writeTrace(path, "w", 5, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"name":"client.lookup"`)) || !bytes.Contains(data, []byte(`"self_ns":`)) ||
		!bytes.HasPrefix(data, []byte(`{"workload":"w","seed":5,"spans":[`)) {
		t.Errorf("trace file: %s", data)
	}
}

func TestMixSharesExact(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 40} {
		r := newRNG(seed, 1)
		classes := make([]opClass, lookupMixBlock)
		var hot, uniform, miss int
		for block := 0; block < 40; block++ {
			mixPattern(r, classes, lookupMixHot, lookupMixHits-lookupMixHot)
			for _, c := range classes {
				switch c {
				case classHot:
					hot++
				case classUniform:
					uniform++
				default:
					miss++
				}
			}
		}
		// A local round: 80 % hits, 90 % of them hot, 20 % misses — exactly.
		if hot != 40*36 || uniform != 40*4 || miss != 40*10 {
			t.Errorf("seed %d: hot=%d uniform=%d miss=%d", seed, hot, uniform, miss)
		}
	}
}

func TestLookupStreamMatchesOracle(t *testing.T) {
	s := newSynth(9,
		synthPart{base: 2 << 16, n: 1000, stride: lookupStride},
		synthPart{base: 130 << 16, n: 1000, stride: lookupStride})
	r := newRNG(9, 2)
	hot := []int32{3, 1500, 77}
	isHot := map[int32]bool{3: true, 1500: true, 77: true}
	ops := lookupStream(s, r, hot, 5000, true)
	var hits, hotHits, misses, low int
	for _, op := range ops {
		idx, ok := s.find(op.addr)
		if ok != (op.rec >= 0) || (ok && int32(idx) != op.rec) {
			t.Fatalf("op %+v: oracle says %d,%v", op, idx, ok)
		}
		if ok {
			hits++
			if !s.prefix(idx).Contains(op.addr) || s.record(idx).Prefix != s.prefix(idx) {
				t.Fatalf("record %d does not cover %v", idx, op.addr)
			}
			if isHot[op.rec] {
				hotHits++
			}
		} else {
			misses++
		}
		if op.addr < ipaddr.Addr(128<<24) {
			low++
		}
	}
	if hits != 4000 || misses != 1000 {
		t.Errorf("hits=%d misses=%d, want 4000/1000", hits, misses)
	}
	if hotHits < 3600 { // the 3600 hot draws, plus uniform draws that land on a hot record
		t.Errorf("hot hits = %d, want >= 3600", hotHits)
	}
	if low == 0 || low == len(ops) {
		t.Errorf("addresses not split across both partitions: %d of %d below 128.0.0.0", low, len(ops))
	}
	// Same seed, same stream.
	again := lookupStream(s, newRNG(9, 2), hot, 5000, true)
	for i := range ops {
		if ops[i] != again[i] {
			t.Fatalf("op %d differs between two runs of one seed", i)
		}
	}
	if other := lookupStream(s, newRNG(10, 2), hot, 5000, true); other[0] == ops[0] && other[1] == ops[1] && other[2] == ops[2] {
		t.Error("a different seed produced the same stream")
	}
	// A scattered round keeps the hit/miss split and aims nothing at the hot
	// set: only uniform draws that happen to land on one of its 3 records.
	hits, hotHits = 0, 0
	for _, op := range lookupStream(s, newRNG(9, 3), hot, 5000, false) {
		if idx, ok := s.find(op.addr); ok != (op.rec >= 0) || (ok && int32(idx) != op.rec) {
			t.Fatalf("scattered op %+v: oracle says %d,%v", op, idx, ok)
		}
		if op.rec >= 0 {
			hits++
			if isHot[op.rec] {
				hotHits++
			}
		}
	}
	if hits != 4000 || hotHits > 40 {
		t.Errorf("scattered stream: hits=%d (want 4000) hot hits=%d (want a handful)", hits, hotHits)
	}
	if !localRound(0) || localRound(1) || !localRound(2) {
		t.Error("rounds must alternate local, scattered, local")
	}
}

func TestBatchOpsShares(t *testing.T) {
	s := newSynth(3, synthPart{base: 1 << 16, n: 5000, stride: batchStride})
	for _, ops := range batchOps(s, newRNG(3, 1), 20) {
		hits := 0
		for _, op := range ops {
			if _, ok := s.find(op.addr); ok != (op.rec >= 0) {
				t.Fatalf("op %+v disagrees with the oracle", op)
			}
			if op.rec >= 0 {
				hits++
			}
		}
		if len(ops) != batchSize || hits != batchHits {
			t.Errorf("batch of %d with %d hits, want %d/%d", len(ops), hits, batchSize, batchHits)
		}
	}
}

func TestSynthRecordsAreServable(t *testing.T) {
	s := newSynth(11, synthPart{base: 1 << 16, n: 2000, stride: 3})
	var prev ipaddr.Prefix24
	for i := 0; i < s.n; i++ {
		r := s.record(i)
		if i > 0 && r.Prefix <= prev {
			t.Fatalf("record %d prefix %v not above %v", i, r.Prefix, prev)
		}
		prev = r.Prefix
		if !r.Centroid.Valid() || r.RadiusKm <= 0 {
			t.Fatalf("record %d geometry %+v", i, r)
		}
		if r != s.record(i) {
			t.Fatalf("record %d is not a pure function of its index", i)
		}
	}
}

// BENCHMARK.json is the -spec output, byte for byte.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSpec(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("BENCHMARK.json differs from `-spec`; regenerate it with: go run . -spec > ../BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v: duplicate, over-long or bad direction", m)
		}
		seen[m.Name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d per-layer, %d end-to-end, %d workloads", len(perLayer), len(endToEnd), len(workloads))
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %s: why is %d characters, or the name is taken", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	if len(experimentIDs) != 23 {
		t.Errorf("%d experiment ids", len(experimentIDs))
	}
}
