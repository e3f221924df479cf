package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// procs is the GOMAXPROCS the harness pins: the recorded host has two
// hardware threads, and a fixed value keeps runs on larger hosts comparable.
const procs = 2

// setupStep is one timed part of set-up, scaled to reference speed by the
// calibrations taken right before and right after it. rep is the repetition
// of the set-up the step belongs to, -1 for a step that runs once.
type setupStep struct {
	name string
	rawS float64
	k    float64
	rep  int
}

// sliceRec is one measured slice: the work between two calibrations.
type sliceRec struct {
	round  int  // slices of one round sum to one throughput sample
	traced bool // spans were recorded during this slice
	ops    int

	wallNs  int64
	cpuNs   int64 // getrusage user+system, whole process (client and server)
	mallocs uint64

	calBefore, calAfter float64 // reference kernel, ms
	samples             []int64 // raw per-op latencies, ns
}

// speedFactor is nominal/measured: below 1 when the host ran slower than the
// reference around the slice, so raw durations shrink to reference speed.
func speedFactor(calBeforeMs, calAfterMs float64) float64 {
	return refCPUNominalMs / ((calBeforeMs + calAfterMs) / 2)
}

func (s *sliceRec) k() float64 { return speedFactor(s.calBefore, s.calAfter) }

// harness owns the clock of a run: set-up steps, calibrations, measured
// slices, correctness accounting and the per-layer values a trace run adds.
type harness struct {
	seed    uint64
	seconds int
	tr      *tracer // nil unless -trace 1
	tmpDir  string

	cpu    *cpuKernel
	lastMs float64   // latest calibration
	fresh  bool      // nothing has run since lastMs was taken
	cals   []float64 // every calibration of the run, ms

	steps    []setupStep
	rep      int // current repetition of the set-up, -1 outside one
	stepName string
	stepT0   time.Time
	stepCal  float64

	measuring bool
	measureT0 time.Time
	measureNs int64
	refNs     int64 // calibration time inside the measured phase
	slices    []sliceRec
	cur       sliceRec
	curT0     time.Time
	curCPU    int64
	curMalloc uint64
	curSpan   int
	spanName  string

	attempted, failed atomic.Int64
	failMsgs          atomic.Int64

	artifactBytesPerOp float64
	layer              map[string]float64
	info               []string
}

func newHarness(seed uint64, seconds int, trace bool, tmpDir string) *harness {
	h := &harness{
		seed: seed, seconds: seconds, tmpDir: tmpDir,
		cpu: newCPUKernel(), layer: make(map[string]float64), curSpan: -1, rep: -1,
	}
	if trace {
		h.tr = newTracer(processStart)
	}
	// Everything before the first calibration (runtime start, flag parsing,
	// building the 4 MiB reference table) is the "init" step.
	initS := time.Since(processStart).Seconds()
	h.calibrate()
	h.steps = append(h.steps, setupStep{"init", initS, refCPUNominalMs / h.lastMs, -1})
	return h
}

// calibrate runs the reference kernel once.
func (h *harness) calibrate() {
	d := h.cpu.run()
	h.lastMs = float64(d) / 1e6
	h.fresh = true
	h.cals = append(h.cals, h.lastMs)
	if h.measuring {
		h.refNs += int64(d)
	}
}

// stepBegin opens a set-up step; stepEnd closes it. Steps with the same name
// add up, and a long step is best cut into several so that each piece is
// scaled by calibrations taken close to it.
func (h *harness) stepBegin(name string) {
	if !h.fresh {
		h.calibrate()
	}
	h.stepName, h.stepCal = name, h.lastMs
	h.fresh = false
	h.stepT0 = time.Now()
}

func (h *harness) stepEnd() {
	raw := time.Since(h.stepT0).Seconds()
	h.calibrate()
	h.steps = append(h.steps, setupStep{h.stepName, raw, speedFactor(h.stepCal, h.lastMs), h.rep})
}

func (h *harness) step(name string, fn func() error) error {
	h.stepBegin(name)
	err := fn()
	h.stepEnd()
	if err != nil {
		return fmt.Errorf("set-up %s: %w", name, err)
	}
	return nil
}

// nextSetupRep starts the next repetition of the set-up. A workload whose
// set-up is short sets up several times in one run — tearing down in between
// and keeping the last — and setup_s counts the median repetition, so that
// one burst of interference, or what an earlier process left in the page
// cache, does not move it. Steps taken before the first repetition run once
// and always count.
func (h *harness) nextSetupRep() { h.rep++ }

// setupSteps returns the steps setup_s is made of: those that ran once, plus
// those of the repetition whose reference-speed total is the median one.
func (h *harness) setupSteps() []setupStep {
	var totals []float64
	for _, st := range h.steps {
		if st.rep >= 0 {
			for len(totals) <= st.rep {
				totals = append(totals, 0)
			}
			totals[st.rep] += st.rawS * st.k
		}
	}
	order := make([]int, len(totals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return totals[order[a]] < totals[order[b]] })
	kept := -1
	if len(order) > 0 {
		kept = order[len(order)/2]
	}
	var out []setupStep
	for _, st := range h.steps {
		if st.rep < 0 || st.rep == kept {
			out = append(out, st)
		}
	}
	return out
}

// stepRefS is the reference-speed time of the counted set-up steps called name.
func (h *harness) stepRefS(name string) float64 {
	var s float64
	for _, st := range h.setupSteps() {
		if st.name == name {
			s += st.rawS * st.k
		}
	}
	return s
}

// beginMeasure ends set-up and starts the measured phase; spanName names the
// span a traced slice records.
func (h *harness) beginMeasure(spanName string) {
	h.spanName = spanName
	h.rep = -1
	h.measuring = true
	h.measureT0 = time.Now()
	if !h.fresh {
		h.calibrate()
	}
}

func (h *harness) endMeasure() {
	h.measureNs = int64(time.Since(h.measureT0))
	h.measuring = false
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sliceStart opens a measured slice. The calibration that closed the previous
// slice (or opened the phase) is this slice's "before".
func (h *harness) sliceStart(round int, traced bool) {
	if !h.fresh {
		h.calibrate()
	}
	h.fresh = false
	h.cur = sliceRec{round: round, traced: traced && h.tr != nil, calBefore: h.lastMs}
	h.curSpan = -1
	if h.cur.traced {
		h.curSpan = h.tr.begin(h.spanName, int64(len(h.slices)), -1)
	}
	h.curMalloc = mallocsNow()
	h.curCPU = cpuNow()
	h.curT0 = time.Now()
}

// sliceEnd closes the slice with the ops it completed and their raw latency
// samples (nil: the slice is one sample), then calibrates.
func (h *harness) sliceEnd(ops int, samples []int64) {
	h.cur.wallNs = int64(time.Since(h.curT0))
	h.cur.cpuNs = cpuNow() - h.curCPU
	h.cur.mallocs = mallocsNow() - h.curMalloc
	if h.curSpan >= 0 {
		h.tr.end(h.curSpan)
		h.tr.setBusy(h.curSpan, int64(ops), h.cur.cpuNs)
	}
	h.cur.ops = ops
	if samples == nil {
		samples = []int64{h.cur.wallNs}
	}
	h.cur.samples = samples
	h.attempted.Add(int64(ops))
	h.calibrate()
	h.cur.calAfter = h.lastMs
	h.slices = append(h.slices, h.cur)
}

// peel times fn (ops operations of one peeled layer) between two fresh
// calibrations and returns nanoseconds per op at reference speed.
func (h *harness) peel(name string, ops int, fn func()) float64 {
	if !h.fresh {
		h.calibrate()
	}
	before := h.lastMs
	h.fresh = false
	sp := -1
	if h.tr != nil {
		sp = h.tr.begin(name, 0, -1)
	}
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	if sp >= 0 {
		h.tr.end(sp)
		h.tr.setBusy(sp, int64(ops), int64(d))
	}
	h.calibrate()
	return float64(d) * speedFactor(before, h.lastMs) / float64(ops)
}

// fail counts n failed ops and prints the first few reasons.
func (h *harness) fail(n int, format string, args ...any) {
	h.failed.Add(int64(n))
	if h.failMsgs.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	}
}

func (h *harness) note(format string, args ...any) {
	h.info = append(h.info, fmt.Sprintf(format, args...))
}

// roundStat is one round (one throughput sample) at raw and reference speed.
type roundStat struct {
	ops              int
	rawNs, refNs     float64
	cpuNs, cpuRefNs  float64
	traced, untraced bool
}

func (h *harness) rounds() []roundStat {
	idx := map[int]int{}
	var out []roundStat
	for i := range h.slices {
		s := &h.slices[i]
		j, ok := idx[s.round]
		if !ok {
			j = len(out)
			idx[s.round] = j
			out = append(out, roundStat{})
		}
		r := &out[j]
		r.ops += s.ops
		r.rawNs += float64(s.wallNs)
		r.refNs += float64(s.wallNs) * s.k()
		r.cpuNs += float64(s.cpuNs)
		r.cpuRefNs += float64(s.cpuNs) * s.k()
		if s.traced {
			r.traced = true
		} else {
			r.untraced = true
		}
	}
	return out
}

// results derives the end-to-end metrics and the harness's own per-layer
// metrics from the recorded steps and slices. Throughput and CPU are medians
// over rounds, so a burst of interference that hits a minority of rounds does
// not move them; latency percentiles are exact, over every sample, and are
// per-layer metrics (README, "Why latency percentiles are not gated").
func (h *harness) results() (e2e, layer map[string]float64, samples int) {
	e2e, layer = map[string]float64{}, map[string]float64{}
	for k, v := range h.layer {
		layer[k] = v
	}

	for _, st := range h.setupSteps() {
		e2e["setup_s"] += st.rawS * st.k
		layer["bench.raw_setup_s"] += st.rawS
		if st.name != "init" {
			layer["setup."+st.name+"_s"] += st.rawS * st.k
		}
	}

	var perOpRef, perOpRaw, perOpCPU, perOpRawCPU, tracedRef, untracedRef []float64
	var ops int
	for _, r := range h.rounds() {
		if r.ops == 0 {
			continue
		}
		n := float64(r.ops)
		perOpRef = append(perOpRef, r.refNs/n)
		perOpRaw = append(perOpRaw, r.rawNs/n)
		perOpCPU = append(perOpCPU, r.cpuRefNs/n)
		perOpRawCPU = append(perOpRawCPU, r.cpuNs/n)
		if r.traced && !r.untraced {
			tracedRef = append(tracedRef, r.refNs/n)
		} else if r.untraced && !r.traced {
			untracedRef = append(untracedRef, r.refNs/n)
		}
		ops += r.ops
	}
	var ref, raw, ks []float64
	var mallocs uint64
	for i := range h.slices {
		s := &h.slices[i]
		mallocs += s.mallocs
		k := s.k()
		ks = append(ks, k)
		for _, ns := range s.samples {
			raw = append(raw, float64(ns)/1e3)
			ref = append(ref, float64(ns)*k/1e3)
		}
	}
	sort.Float64s(ref)
	sort.Float64s(raw)
	samples = len(ref)

	if m := median(perOpRef); m > 0 {
		e2e["ops_per_ref_s"] = 1e9 / m
	}
	if m := median(perOpRaw); m > 0 {
		layer["bench.raw_ops_per_s"] = 1e9 / m
	}
	e2e["cpu_ref_us_per_op"] = median(perOpCPU) / 1e3
	layer["bench.raw_cpu_us_per_op"] = median(perOpRawCPU) / 1e3
	if samples > 0 {
		layer["bench.p50_ref_us"] = percentile(ref, 50)
		layer["bench.p90_ref_us"] = percentile(ref, 90)
		layer["bench.p99_ref_us"] = percentile(ref, 99)
		layer["bench.p999_ref_us"] = percentile(ref, 99.9)
		layer["bench.raw_p50_us"] = percentile(raw, 50)
		layer["bench.raw_p90_us"] = percentile(raw, 90)
	}
	if ops > 0 {
		e2e["allocs_per_op"] = float64(mallocs) / float64(ops)
	}
	e2e["peak_rss_mb"] = peakRSSMB()
	e2e["artifact_bytes_per_op"] = h.artifactBytesPerOp

	layer["bench.speed_factor_p50"] = median(ks)
	layer["bench.speed_factor_min"], layer["bench.speed_factor_max"] = minMax(ks)
	layer["bench.ref_cpu_ms_p50"] = median(h.cals)
	if h.measureNs > 0 {
		layer["bench.ref_share"] = float64(h.refNs) / float64(h.measureNs)
	}
	if t, u := median(tracedRef), median(untracedRef); t > 0 && u > 0 {
		layer["bench.trace_overhead_frac"] = t/u - 1
	}
	return e2e, layer, samples
}
