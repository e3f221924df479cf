// Command benchjson converts `go test -bench` output into a JSON summary.
// It reads the benchmark output on stdin, echoes every line through to
// stdout (so it can sit in a pipeline without hiding the run), and writes
// the parsed results to the -o file:
//
//	go test -bench . -benchmem -run '^$' . | benchjson -o before.json
//
// Custom b.ReportMetric units (e.g. medianErrKm, retries) land in the same
// per-benchmark metrics map as ns/op, B/op, and allocs/op. A benchmark
// name appearing on several result lines (-count > 1) is aggregated into
// one entry: iteration counts sum, metrics average.
//
// With -compare the parsed run is also checked against a previously
// written summary and the command exits nonzero when any baseline
// benchmark is missing from the run or has regressed beyond the allowed
// thresholds:
//
//	go test -bench . -benchmem -run '^$' . |
//	    benchjson -o after.json -compare before.json -max-regress 100 -max-regress-bytes 25 -max-regress-allocs 25
//
// This is a developer's tool for two runs on one quiet host. The repo
// commits no snapshot and gates nothing on it: -benchtime 1x timings and
// pool-dependent B/op do not repeat across hosts (the gate is the benchmark,
// BENCHMARK.json and benchmark/README.md).
//
// Percentage thresholds cannot gate a zero baseline (any increase over 0
// is infinite), so metrics whose baseline value is 0 are skipped: the
// hard zero-allocation guarantee of the serving hot path lives in
// TestServeAllocs (make allocs-smoke), not here.
//
// Empty or unparseable input is an error: a bench run that crashed or
// produced nothing must fail the pipeline, not write an empty summary
// that downstream tooling mistakes for a clean run. On error no output
// file is written.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped
	// (BenchmarkFoo/sub-8 → Foo/sub).
	Name string `json:"name"`
	// N is the iteration count of the run.
	N int64 `json:"n"`
	// Metrics maps unit → value for every value-unit pair on the line.
	Metrics map[string]float64 `json:"metrics"`
}

// Summary is the output document.
type Summary struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// errNoBenchmarks reports input that contained no benchmark result lines.
var errNoBenchmarks = errors.New("no benchmark result lines found on stdin (empty, truncated, or failed bench run?)")

// gomaxprocsSuffix matches the trailing -N processor-count suffix go test
// appends to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// benchName matches a Go benchmark function name (BenchmarkXxx, possibly
// with /sub names and a -N suffix). Prose that merely starts with the word
// "Benchmark" does not match and passes through as a log line.
var benchName = regexp.MustCompile(`^Benchmark[A-Z_][^\s]*$|^Benchmark$`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", "BENCH.json", "output JSON file")
	compare := flag.String("compare", "",
		"baseline summary to compare against; exits nonzero on regression")
	maxRegress := flag.Float64("max-regress", 50,
		"with -compare: max allowed ns/op increase over the baseline, in percent")
	maxRegressBytes := flag.Float64("max-regress-bytes", 25,
		"with -compare: max allowed B/op increase over the baseline, in percent")
	maxRegressAllocs := flag.Float64("max-regress-allocs", 25,
		"with -compare: max allowed allocs/op increase over the baseline, in percent")
	flag.Parse()

	sum, err := parse(bufio.NewScanner(os.Stdin), os.Stdout)
	if err != nil {
		log.Fatalf("%v; not writing %s", err, *out)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(sum); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("%d benchmark(s) written to %s", len(sum.Benchmarks), *out)

	if *compare != "" {
		base, err := loadSummary(*compare)
		if err != nil {
			log.Fatalf("loading baseline: %v", err)
		}
		regs, err := compareSummaries(base, sum, limits{
			"ns/op":     *maxRegress,
			"B/op":      *maxRegressBytes,
			"allocs/op": *maxRegressAllocs,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range regs {
			log.Printf("REGRESSION: %s", r)
		}
		if len(regs) > 0 {
			log.Fatalf("%d benchmark metric(s) regressed beyond the allowed thresholds vs %s", len(regs), *compare)
		}
		log.Printf("no regressions vs %s (ns/op within %.0f%%, B/op within %.0f%%, allocs/op within %.0f%%)",
			*compare, *maxRegress, *maxRegressBytes, *maxRegressAllocs)
	}
}

// loadSummary reads a previously written summary.
func loadSummary(path string) (Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Summary{}, err
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return Summary{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// limits maps a metric unit to its allowed regression in percent. Units
// absent from the map are informational and never gate.
type limits map[string]float64

// compareSummaries checks every baseline benchmark against the current
// run. A baseline benchmark missing from the run is an error — a silently
// dropped or renamed benchmark must not pass the gate by vanishing. The
// returned strings describe each metric that regressed past its limit.
func compareSummaries(base, cur Summary, lim limits) ([]string, error) {
	curByName := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}
	var regs []string
	for _, bb := range base.Benchmarks {
		cb, ok := curByName[bb.Name]
		if !ok {
			return nil, fmt.Errorf(
				"baseline benchmark %q missing from this run — renamed, dropped, or filtered out? "+
					"(run the full bench suite, or refresh the baseline)", bb.Name)
		}
		// Stable report order: iterate units sorted.
		units := make([]string, 0, len(lim))
		for u := range lim {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, unit := range units {
			maxPct := lim[unit]
			ov, okOld := bb.Metrics[unit]
			nv, okNew := cb.Metrics[unit]
			if !okOld || !okNew || ov <= 0 {
				// Metric not tracked on both sides, or a zero baseline a
				// percentage cannot gate (0-alloc paths are gated by
				// TestServeAllocs instead): nothing to check.
				continue
			}
			pct := (nv - ov) / ov * 100
			if pct > maxPct {
				regs = append(regs, fmt.Sprintf("%s %s: %.4g -> %.4g (%+.1f%%, limit %+.0f%%)",
					bb.Name, unit, ov, nv, pct, maxPct))
			}
		}
	}
	return regs, nil
}

// parse consumes benchmark output, echoing each line to echo, and returns
// the structured summary. Non-benchmark lines (PASS, ok, test log output,
// the bare BenchmarkFoo announcement go test prints before a result) are
// passed through untouched; a line that *claims* to be a result but does
// not parse is an error, as is input with no results at all.
func parse(sc *bufio.Scanner, echo io.Writer) (Summary, error) {
	var sum Summary
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if v, ok := strings.CutPrefix(line, "goos: "); ok {
			sum.Goos = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "goarch: "); ok {
			sum.Goarch = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "pkg: "); ok {
			sum.Pkg = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			sum.CPU = v
			continue
		}
		b, ok, err := parseBenchLine(line)
		if err != nil {
			return Summary{}, fmt.Errorf("stdin line %d: %w", lineno, err)
		}
		if ok {
			sum.Benchmarks = append(sum.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return Summary{}, fmt.Errorf("reading stdin: %w", err)
	}
	if len(sum.Benchmarks) == 0 {
		return Summary{}, errNoBenchmarks
	}
	sum.Benchmarks = aggregate(sum.Benchmarks)
	return sum, nil
}

// aggregate merges result lines sharing one benchmark name (as produced
// by -count > 1) into a single entry: iteration counts sum, each metric
// becomes the arithmetic mean of the lines reporting it. Order follows
// first appearance, so a single-run input passes through unchanged.
func aggregate(in []Benchmark) []Benchmark {
	type acc struct {
		idx    int
		counts map[string]int
	}
	byName := make(map[string]*acc, len(in))
	out := make([]Benchmark, 0, len(in))
	for _, b := range in {
		a, ok := byName[b.Name]
		if !ok {
			byName[b.Name] = &acc{idx: len(out), counts: map[string]int{}}
			a = byName[b.Name]
			for unit := range b.Metrics {
				a.counts[unit] = 1
			}
			out = append(out, b)
			continue
		}
		dst := &out[a.idx]
		dst.N += b.N
		for unit, v := range b.Metrics {
			// Incremental mean over the lines carrying this unit.
			n := a.counts[unit] + 1
			a.counts[unit] = n
			dst.Metrics[unit] += (v - dst.Metrics[unit]) / float64(n)
		}
	}
	return out
}

// parseBenchLine parses one `BenchmarkName-8  N  v1 unit1  v2 unit2 ...`
// result line. A line that is not a result line at all returns ok=false;
// a Benchmark-prefixed line with fields that fail to parse returns an
// error so corrupt output is caught instead of dropped.
func parseBenchLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !benchName.MatchString(fields[0]) {
		return Benchmark{}, false, nil
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, fmt.Errorf("malformed benchmark line %q: iteration count %q is not an integer", line, fields[1])
	}
	if (len(fields)-2)%2 != 0 {
		return Benchmark{}, false, fmt.Errorf("malformed benchmark line %q: dangling value without a unit", line)
	}
	b := Benchmark{
		Name:    gomaxprocsSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), ""),
		N:       n,
		Metrics: map[string]float64{},
	}
	// The rest of the line is value-unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("malformed benchmark line %q: value %q is not a number", line, fields[i])
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true, nil
}
