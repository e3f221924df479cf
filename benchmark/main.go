// Command benchmark is the repository's end-to-end benchmark: one process that
// builds a workload's inputs from -seed, drives the program under test in
// measured slices bracketed by a reference kernel, checks every output, and
// prints each metric by name. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// processStart anchors setup_s; package-level initialisers run before main.
var processStart = time.Now()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	runtime.GOMAXPROCS(procs)
	var (
		name    = flag.String("workload", "", "workload to run (see -spec)")
		seed    = flag.Uint64("seed", 1, "drives address streams, hot set, synthetic records and the world seed (0 = the config's own)")
		seconds = flag.Int("seconds", runSeconds, "length of the measured phase at reference speed; fixes the op counts")
		trace   = flag.Int("trace", 0, "1 = record spans, run the layer peels, print per-layer metrics, write trace.json")
		outDir  = flag.String("out", ".bench_build", "directory for trace.json and temporary artifacts")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		aaDir   = flag.String("aa", "", "make the A/A runs into this directory, print their report and exit (aa.sh)")
		base    = flag.String("baseline", "", "with -aa: also write the baseline record (medians, host, toolchain) to this file")
		commit  = flag.String("commit", "unknown", "with -baseline: the commit the runs were made on")
	)
	flag.Parse()
	if *aaDir != "" {
		err := aaRunAll(*aaDir)
		var ok bool
		if err == nil {
			ok, err = aaReport(os.Stdout, *aaDir)
		}
		if err == nil && *base != "" {
			err = writeBaseline(*base, *aaDir, *commit)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if !ok {
			return 3
		}
		return 0
	}
	if *spec {
		if err := writeSpec(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	wl := findWorkload(*name)
	if wl == nil || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: benchmark -workload <name> [-seed n] [-seconds n] [-trace 0|1]\nworkloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", w.Name, w.Why)
		}
		return 2
	}

	tmp := filepath.Join(*outDir, "tmp", fmt.Sprintf("%s-%d", wl.Name, os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(tmp)

	h := newHarness(*seed, *seconds, *trace == 1, tmp)
	if err := wl.run(h); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", wl.Name, err)
		return 1
	}
	e2e, layer, samples := h.results()
	if h.tr != nil {
		path := filepath.Join(*outDir, "trace.json")
		spans := h.tr.snapshot()
		if err := writeTrace(path, wl.Name, *seed, spans); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark %s: write trace: %v\n", wl.Name, err)
			return 1
		}
		h.note("trace %s spans=%d", path, len(spans))
	}

	fmt.Printf("workload %s seed=%d seconds=%d trace=%d gomaxprocs=%d %s\n",
		wl.Name, *seed, *seconds, *trace, procs, runtime.Version())
	for _, line := range h.info {
		fmt.Println(line)
	}
	res := resultLine{
		Attempted: h.attempted.Load(),
		Failed:    h.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Printf("ops attempted=%d failed=%d latency_samples=%d rounds=%d\n",
		res.Attempted, res.Failed, samples, len(h.rounds()))
	for _, m := range endToEnd {
		fmt.Printf("e2e   %-40s %16.4f %s\n", m.Name, e2e[m.Name], m.Unit)
		if h.tr == nil {
			res.Metrics[m.Name] = metricValue{e2e[m.Name], m.Unit}
		}
	}
	for _, m := range perLayer {
		if h.tr != nil {
			fmt.Printf("layer %-40s %16.4f %s\n", m.Name, layer[m.Name], m.Unit)
			res.Metrics[m.Name] = metricValue{layer[m.Name], m.Unit}
		} else if v, ok := layer[m.Name]; ok {
			fmt.Printf("layer %-40s %16.4f %s\n", m.Name, v, m.Unit)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
