package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fakeRunOutput(ops, rawOps, setup float64, correct bool) string {
	return fmt.Sprintf("workload x seed=1\ne2e   ops_per_ref_s   %v 1/s\nlayer bench.raw_ops_per_s   %v 1/s\nlayer bench.ref_share 0.1 ratio\n"+
		`{"correct":%v,"attempted":10,"failed":0,"metrics":{"ops_per_ref_s":{"value":%v,"unit":"1/s"},"setup_s":{"value":%v,"unit":"s"}}}`+"\n",
		ops, rawOps, correct, ops, setup)
}

func TestParseRun(t *testing.T) {
	run, err := parseRun(strings.NewReader(fakeRunOutput(1000, 900, 2.5, true)))
	if err != nil {
		t.Fatal(err)
	}
	if !run.correct || run.values["ops_per_ref_s"] != 1000 || run.values["bench.raw_ops_per_s"] != 900 || run.values["setup_s"] != 2.5 {
		t.Errorf("run = %+v", run)
	}
	if _, err := parseRun(strings.NewReader("no result here\n")); err == nil {
		t.Error("output without a result line must not parse")
	}
}

func TestAAVerdict(t *testing.T) {
	mk := func(vs ...float64) []aaRun {
		var runs []aaRun
		for _, v := range vs {
			runs = append(runs, aaRun{correct: true, values: map[string]float64{"m": v}})
		}
		return runs
	}
	steady := summarise(mk(100, 101, 99, 100, 102, 98, 100, 101), "m")
	if steady.n != 8 || steady.med != 100 || steady.lo != 98 || steady.hi != 102 || steady.spread > 0.03 {
		t.Errorf("steady = %+v", steady)
	}
	shifted := summarise(mk(105, 106, 104, 105, 107, 103, 105, 106), "m")
	noisy := summarise(mk(100, 120, 80, 100, 125, 75, 100, 110), "m")
	if shift, ok := aaVerdict(steady, steady, 0.10); !ok || shift != 0 {
		t.Errorf("identical sets: shift %v ok %v", shift, ok)
	}
	// Medians 5 % apart: within a third of a 16 % bound, not of a 14 % one.
	if shift, ok := aaVerdict(steady, shifted, 0.16); !ok || shift < 0.049 || shift > 0.051 {
		t.Errorf("shifted sets: shift %v ok %v", shift, ok)
	}
	if _, ok := aaVerdict(steady, shifted, 0.14); ok {
		t.Error("5 % apart passed a third of 14 %")
	}
	// Same median, one quartile spread of 30 %: within half of a 60 % bound only.
	if noisy.spread < 0.25 || noisy.spread > 0.35 {
		t.Fatalf("noisy spread = %v", noisy.spread)
	}
	if _, ok := aaVerdict(steady, noisy, 0.25); ok {
		t.Errorf("noisy set passed: %+v", noisy)
	}
	if _, ok := aaVerdict(noisy, steady, 0.70); !ok {
		t.Error("a 30 % spread failed half of a 70 % bound")
	}
}

func TestAAReport(t *testing.T) {
	dir := t.TempDir()
	write := func(set, wl string, i int, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%s-%d.out", set, wl, i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, wl := range workloads {
		for i := 0; i < 4; i++ {
			write("A", wl.Name, i, fakeRunOutput(1000+float64(i), 900+50*float64(i), 2, true))
			write("B", wl.Name, i, fakeRunOutput(1001+float64(i), 880+60*float64(i), 2, true))
		}
	}
	var buf bytes.Buffer
	ok, err := aaReport(&buf, dir)
	if err != nil || !ok {
		t.Fatalf("steady sets: ok=%v err=%v\n%s", ok, err, buf.String())
	}
	// The raw twin spreads wider than the normalised value here, so the
	// report must not claim that normalising failed to help.
	if !strings.Contains(buf.String(), "| ops_per_ref_s | 25.00% | 1001.5 | 1002.5 |") || !strings.Contains(buf.String(), "Result: PASS") ||
		!strings.Contains(buf.String(), "Normalising narrowed") || !strings.Contains(buf.String(), "NOT met: the issue's cap of 10 %") {
		t.Errorf("report:\n%s", buf.String())
	}
	// Four runs a set are a trial, not a baseline.
	base := filepath.Join(dir, "baseline.json")
	if err := writeBaseline(base, dir, "abc123"); err == nil {
		t.Fatal("an incomplete run set wrote a baseline")
	}
	if _, err := os.Stat(base); err == nil {
		t.Fatal("baseline file exists after a refused write")
	}
	for _, wl := range workloads {
		for i := 4; i < aaRuns; i++ {
			write("A", wl.Name, i, fakeRunOutput(1000+float64(i%4), 900+50*float64(i%4), 2, true))
			write("B", wl.Name, i, fakeRunOutput(1001+float64(i%4), 880+60*float64(i%4), 2, true))
		}
	}
	if err := writeBaseline(base, dir, "abc123"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"commit": "abc123"`, `"gomaxprocs": 2`, `"compile-stream": 20`, `"median": 1002`, `"unit": "1/s"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("baseline lacks %s:\n%s", want, data)
		}
	}
	// One workload's set B drifts by 12 %, more than a third of 25 %: the report must fail.
	for i := 0; i < aaRuns; i++ {
		write("B", workloads[0].Name, i, fakeRunOutput(1120+float64(i%4), 900, 2, true))
	}
	buf.Reset()
	if ok, err := aaReport(&buf, dir); err != nil || ok || !strings.Contains(buf.String(), "**FAIL**") {
		t.Errorf("drifted set: ok=%v err=%v", ok, err)
	}
	// A run with failed ops fails the report whatever its timings.
	write("A", workloads[1].Name, 0, fakeRunOutput(1000, 900, 2, false))
	buf.Reset()
	if ok, _ := aaReport(&buf, dir); ok {
		t.Error("a run with failed ops passed")
	}
}
