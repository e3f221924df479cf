package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// The A/A self-check: aaRunAll runs the same build many times in interleaved
// sets and stores each run's standard output; aaReport reads those files,
// prints the comparison as Markdown and says whether two sets of runs of
// identical code agree within the benchmark's own bounds.

// rawTwin names the un-normalised per-layer value printed beside each
// time-based end-to-end metric, so the report can show what normalising buys.
var rawTwin = map[string]string{
	"setup_s":           "bench.raw_setup_s",
	"ops_per_ref_s":     "bench.raw_ops_per_s",
	"cpu_ref_us_per_op": "bench.raw_cpu_us_per_op",
	"bench.p50_ref_us":  "bench.raw_p50_us",
	"bench.p90_ref_us":  "bench.raw_p90_us",
}

// aaRun is one run's metrics: the JSON result line plus the "layer" lines of
// the human-readable part.
type aaRun struct {
	correct bool
	values  map[string]float64
}

func parseRun(r io.Reader) (aaRun, error) {
	run := aaRun{values: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) >= 3 && f[0] == "layer" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				run.values[f[1]] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return run, err
	}
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return run, fmt.Errorf("last line is not a result: %w", err)
	}
	run.correct = res.Correct
	for name, m := range res.Metrics {
		run.values[name] = m.Value
	}
	return run, nil
}

// loadSet reads dir/<set>-<workload>-*.out.
func loadSet(dir, set, workload string) ([]aaRun, error) {
	paths, err := filepath.Glob(filepath.Join(dir, set+"-"+workload+"-*.out"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var runs []aaRun
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		run, err := parseRun(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// setStats summarises one metric over one set of runs.
type setStats struct {
	n                  int
	q1, med, q3        float64
	lo, hi             float64
	spread, rangeShare float64 // (Q3-Q1)/median and (max-min)/median
}

func summarise(runs []aaRun, metric string) setStats {
	var vs []float64
	for _, r := range runs {
		if v, ok := r.values[metric]; ok {
			vs = append(vs, v)
		}
	}
	st := setStats{n: len(vs)}
	if len(vs) < 2 {
		return st
	}
	st.q1, st.med, st.q3 = quartiles(vs)
	st.lo, st.hi = minMax(vs)
	if st.med != 0 {
		st.spread = (st.q3 - st.q1) / math.Abs(st.med)
		st.rangeShare = (st.hi - st.lo) / math.Abs(st.med)
	}
	return st
}

// issueBoundCap is the largest bound the issue wanted any metric to have. The
// time-based bounds are above it (spec.go, timeBound), so the report also says
// how many pairs would pass the same rule at the capped bound.
const issueBoundCap = 0.10

// aaVerdict applies the issue's rule to one metric of one workload: the two
// medians within a third of the bound of each other and each set's quartile
// spread within half of it. The contract's acceptance check (spreads and
// shift within the whole bound) is weaker, so whatever passes here passes
// there. No metric is exempt.
func aaVerdict(a, b setStats, bound float64) (medianShift float64, ok bool) {
	if a.med == 0 {
		return 0, b.med == 0
	}
	medianShift = math.Abs(a.med-b.med) / math.Abs(a.med)
	return medianShift, medianShift <= bound/3 && math.Max(a.spread, b.spread) <= bound/2
}

// The run set is fixed: aaRuns runs per workload in each of the two interleaved
// sets, aaSeedRuns runs of seed aaSeed, each runSeconds long.
const (
	aaRuns     = 10
	aaSeedRuns = 4
	aaSeed     = 7
)

// aaRunAll makes the runs the report is built from, each in a process of its
// own as the acceptance check makes them, and stores their standard output in
// dir: for every workload, aaRuns runs in each of two interleaved sets A and
// B, every run with another seed, then aaSeedRuns runs of one seed as set S.
func aaRunAll(dir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stale, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return err
	}
	for _, p := range stale { // an earlier set's runs must not count towards this one
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	one := func(set string, wl string, i, seed int) error {
		out, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%s-%d.out", set, wl, i)))
		if err != nil {
			return err
		}
		defer out.Close()
		cmd := exec.Command(self, "-workload", wl, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(runSeconds), "-trace", "0")
		cmd.Stdout, cmd.Stderr = out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("set %s run %d of %s: %w", set, i, wl, err)
		}
		return nil
	}
	for i := 1; i <= aaRuns; i++ {
		for _, wl := range workloads {
			if err := one("A", wl.Name, i, i); err != nil {
				return err
			}
			if err := one("B", wl.Name, i, 1000+i); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "aa: round %d/%d done\n", i, aaRuns)
	}
	for i := 1; i <= aaSeedRuns; i++ {
		for _, wl := range workloads {
			if err := one("S", wl.Name, i, aaSeed); err != nil {
				return err
			}
		}
	}
	return nil
}

// aaReport writes the Markdown report for the runs in dir and reports whether
// every metric of every workload passed.
func aaReport(w io.Writer, dir string) (bool, error) {
	pass := true
	pairs, capped, cappedOK := 0, 0, 0
	var noHelp []string
	fmt.Fprintf(w, "# A/A self-check\n\n")
	fmt.Fprintf(w, "Two interleaved sets (A, B) of runs of the same build, every run with another seed, as the\n")
	fmt.Fprintf(w, "acceptance check makes them; set S repeats seed %d. Spread is (Q3-Q1)/median with Python's\n", aaSeed)
	fmt.Fprintf(w, "`statistics.quantiles(values, n=4)`; shift is |median A - median B| / median A; \"raw\" is the\n")
	fmt.Fprintf(w, "same quantity without reference normalisation. A pair (metric x workload) is `ok` when the\n")
	fmt.Fprintf(w, "shift is at most a third of the metric's bound and both spreads at most half of it; no metric\n")
	fmt.Fprintf(w, "is exempt. `@10%%` applies the same rule with the bound capped at the 10 %% the issue wanted.\n")
	for _, wl := range workloads {
		a, err := loadSet(dir, "A", wl.Name)
		if err != nil {
			return false, err
		}
		b, err := loadSet(dir, "B", wl.Name)
		if err != nil {
			return false, err
		}
		s, err := loadSet(dir, "S", wl.Name)
		if err != nil {
			return false, err
		}
		if len(a) < 2 || len(b) < 2 {
			return false, fmt.Errorf("%s: %d runs in set A, %d in set B; need at least 2 each", wl.Name, len(a), len(b))
		}
		for _, r := range append(append(append([]aaRun{}, a...), b...), s...) {
			if !r.correct {
				pass = false
				fmt.Fprintf(w, "\n**%s: a run reported failed ops.**\n", wl.Name)
				break
			}
		}
		fmt.Fprintf(w, "\n## %s (A: %d runs, B: %d runs, S: %d runs)\n\n", wl.Name, len(a), len(b), len(s))
		fmt.Fprintf(w, "| metric | bound | median A | median B | shift | Q1..Q3 A | Q1..Q3 B | spread A | spread B | range A | range B | raw spread A | raw spread B | spread S | verdict | @10%% |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
		for _, m := range endToEnd {
			sa, sb, ss := summarise(a, m.Name), summarise(b, m.Name), summarise(s, m.Name)
			shift, ok := aaVerdict(sa, sb, m.Bound)
			verdict := "ok"
			pairs++
			if !ok {
				verdict = "**FAIL**"
				pass = false
			}
			at10 := ""
			if m.Bound > issueBoundCap {
				capped++
				at10 = "fail"
				if _, ok := aaVerdict(sa, sb, issueBoundCap); ok {
					cappedOK++
					at10 = "ok"
				}
			}
			rawA, rawB := "", ""
			if twin, has := rawTwin[m.Name]; has {
				ra, rb := summarise(a, twin), summarise(b, twin)
				rawA, rawB = pct(ra.spread), pct(rb.spread)
				if norm := math.Max(sa.spread, sb.spread); norm > 0 && norm >= math.Max(ra.spread, rb.spread) {
					noHelp = append(noHelp, fmt.Sprintf("`%s` on `%s` (%s normalised, %s raw)", m.Name, wl.Name,
						pct(math.Max(sa.spread, sb.spread)), pct(math.Max(ra.spread, rb.spread))))
				}
			}
			spreadS := ""
			if ss.n >= 2 {
				spreadS = pct(ss.spread)
			}
			fmt.Fprintf(w, "| %s | %s | %.6g | %.6g | %s | %.6g..%.6g | %.6g..%.6g | %s | %s | %s | %s | %s | %s | %s | %s | %s |\n",
				m.Name, pct(m.Bound), sa.med, sb.med, pct(shift), sa.q1, sa.q3, sb.q1, sb.q3,
				pct(sa.spread), pct(sb.spread), pct(sa.rangeShare), pct(sb.rangeShare), rawA, rawB, spreadS, verdict, at10)
		}
		// Not gated: the latency percentiles and the normalisation's own state.
		for _, extra := range []string{"bench.p50_ref_us", "bench.p90_ref_us", "bench.ref_share", "bench.ref_cpu_ms_p50", "bench.speed_factor_p50"} {
			sa, sb := summarise(a, extra), summarise(b, extra)
			if sa.n < 2 || sa.med == 0 {
				continue
			}
			rawA, rawB := "", ""
			if twin, has := rawTwin[extra]; has {
				rawA, rawB = pct(summarise(a, twin).spread), pct(summarise(b, twin).spread)
			}
			fmt.Fprintf(w, "| %s | | %.6g | %.6g | | %.6g..%.6g | %.6g..%.6g | %s | %s | %s | %s | %s | %s | | | |\n",
				extra, sa.med, sb.med, sa.q1, sa.q3, sb.q1, sb.q3, pct(sa.spread), pct(sb.spread), pct(sa.rangeShare), pct(sb.rangeShare), rawA, rawB)
		}
	}
	if pass {
		fmt.Fprintf(w, "\nResult: PASS at this benchmark's bounds — all %d pairs have their medians within a third and their spreads within half of the bound.\n", pairs)
	} else {
		fmt.Fprintf(w, "\nResult: FAIL\n")
	}
	fmt.Fprintf(w, "\nNOT met: the issue's cap of 10 %% on every bound. %d pairs belong to metrics bounded above it;\n", capped)
	fmt.Fprintf(w, "%d of them pass the same rule at a 10 %% bound (column `@10%%`), %d do not.\n", cappedOK, capped-cappedOK)
	if len(noHelp) == 0 {
		fmt.Fprintf(w, "\nNormalising narrowed the wider of the two spreads of every time-based pair.\n")
	} else {
		fmt.Fprintf(w, "\nNOT met in these runs: \"normalising helps\". The wider of the two normalised spreads is no narrower than the wider raw one for\n")
		fmt.Fprintf(w, "%s.\n", strings.Join(noHelp, ", "))
	}
	return pass, nil
}

// baselineRecord is one entry of the BENCH trajectory ROADMAP item 1 asks
// for: where and on what the numbers were taken, and the median and quartiles
// of every end-to-end metric over all runs of sets A and B.
type baselineRecord struct {
	Commit     string                               `json:"commit"`
	Host       string                               `json:"host"`
	NProc      int                                  `json:"nproc"`
	GOMAXPROCS int                                  `json:"gomaxprocs"`
	Go         string                               `json:"go"`
	Platform   string                               `json:"platform"`
	RunSeconds int                                  `json:"run_seconds"`
	Runs       map[string]int                       `json:"runs"`
	Workloads  map[string]map[string]baselineMetric `json:"workloads"`
}

type baselineMetric struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

// hostModel names the CPU the way /proc/cpuinfo does.
func hostModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// writeBaseline stores the baseline record for the runs in dir. It refuses an
// incomplete set: the record says aaRuns runs of runSeconds per set, and a
// shorter trial must not overwrite it.
func writeBaseline(path, dir, commit string) error {
	rec := baselineRecord{
		Commit: commit, Host: hostModel(), NProc: runtime.NumCPU(), GOMAXPROCS: procs,
		Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH, RunSeconds: runSeconds,
		Runs: map[string]int{}, Workloads: map[string]map[string]baselineMetric{},
	}
	for _, wl := range workloads {
		a, err := loadSet(dir, "A", wl.Name)
		if err != nil {
			return err
		}
		b, err := loadSet(dir, "B", wl.Name)
		if err != nil {
			return err
		}
		if len(a) != aaRuns || len(b) != aaRuns {
			return fmt.Errorf("baseline: %s has %d+%d runs, a complete set has %d+%d", wl.Name, len(a), len(b), aaRuns, aaRuns)
		}
		all := append(a, b...)
		for _, r := range all {
			if !r.correct {
				return fmt.Errorf("baseline: a run of %s reported failed ops", wl.Name)
			}
		}
		rec.Runs[wl.Name] = len(all)
		rec.Workloads[wl.Name] = map[string]baselineMetric{}
		for _, m := range append(append([]metricDef{}, endToEnd...),
			metricDef{Name: "bench.ref_cpu_ms_p50", Unit: "ms"}, metricDef{Name: "bench.raw_ops_per_s", Unit: "1/s"}) {
			if st := summarise(all, m.Name); st.n >= 2 {
				rec.Workloads[wl.Name][m.Name] = baselineMetric{st.med, st.q1, st.q3, m.Unit}
			}
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func pct(share float64) string { return strconv.FormatFloat(share*100, 'f', 2, 64) + "%" }
