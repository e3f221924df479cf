// Package experiments reproduces every table and figure of the paper's
// evaluation (§5, §6, appendix C) against a simulated campaign. Each
// experiment returns a Report: a text-renderable table of the same rows or
// series the paper plots, so the replication's shape can be compared
// against the published one (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"geoloc/internal/core"
	"geoloc/internal/geo"
	"geoloc/internal/par"
	"geoloc/internal/stats"
	"geoloc/internal/streetlevel"
	"geoloc/internal/vpsel"
)

// Report is the output of one experiment.
type Report struct {
	// ID is the experiment identifier (e.g. "fig2a"); PaperRef points at
	// the corresponding artifact in the paper.
	ID       string
	Title    string
	PaperRef string
	// Header and Rows form the result table.
	Header []string
	Rows   [][]string
	// Notes carries free-form observations (fallback counts etc.).
	Notes []string
}

// Render formats the report as an aligned text table. Rows wider than the
// header render fine (extra columns are sized from the rows alone), and a
// notes-only report (no header, no rows) renders just its title and notes.
func (r *Report) Render() string {
	cols := len(r.Header)
	for _, row := range r.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	lineWidth := 1 // newline
	for _, w := range widths {
		lineWidth += w + 2
	}
	grow := (len(r.Rows)+2)*lineWidth + len(r.ID) + len(r.Title) + len(r.PaperRef) + 16
	for _, n := range r.Notes {
		grow += len(n) + 8
	}
	b.Grow(grow)
	fmt.Fprintf(&b, "== %s — %s (%s)\n", r.ID, r.Title, r.PaperRef)
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	if len(r.Header) > 0 {
		line(r.Header)
	}
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options scales the experiments.
type Options struct {
	// Fig2Trials is the number of random-subset trials per size (the paper
	// uses 100; smaller values keep tests fast).
	Fig2Trials int
	// Fig2Sizes are the subset sizes swept in Fig 2a.
	Fig2Sizes []int
	// Seed offsets subset sampling.
	Seed uint64
}

// DefaultOptions returns paper-scale options. The paper runs 100 trials
// per subset size in Fig 2a/2b; the default here is 25 — enough for stable
// medians — because the sweep is the costliest experiment by far. Use
// `cmd/experiments -trials 100` to match the paper exactly.
func DefaultOptions() Options {
	return Options{
		Fig2Trials: 25,
		Fig2Sizes:  []int{10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000},
		Seed:       1,
	}
}

// QuickOptions returns reduced options for tests and benchmarks.
func QuickOptions() Options {
	return Options{
		Fig2Trials: 8,
		Fig2Sizes:  []int{10, 50, 200, 1000},
		Seed:       1,
	}
}

// Context holds a prepared campaign and caches expensive intermediate
// results shared by several figures: the full street-level run, the
// all-VP CBG errors, the greedy first-step cover, the random-subset trial
// medians per (size, trials) — Fig 2b's sizes are Fig 2a's — and the
// two-step errors per first-step size — the ablations' greedy arm is
// Fig 3b's 10-VP row. Each is computed by whichever experiment asks
// first, so no experiment depends on another having run.
type Context struct {
	C    *core.Campaign
	SL   *streetlevel.Pipeline
	Opts Options

	slOnce    sync.Once
	slResults []streetlevel.Result

	firstStepOnce sync.Once
	vpMeta        []vpsel.VPMeta
	cover         []int

	trials  memo[trialKey, []float64]
	twoStep memo[int, twoStepRow]

	allCBGOnce sync.Once
	allCBGErrs []float64

	allOnce    sync.Once
	allReports []*Report
}

// memo computes one value per key, once, for whichever caller asks first;
// callers asking for a key being computed wait for it.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	cells map[K]*memoCell[V]
}

type memoCell[V any] struct {
	once sync.Once
	v    V
}

// get returns the value of k, computing it with f if no caller has.
func (m *memo[K, V]) get(k K, f func() V) V {
	m.mu.Lock()
	if m.cells == nil {
		m.cells = make(map[K]*memoCell[V])
	}
	c := m.cells[k]
	if c == nil {
		c = new(memoCell[V])
		m.cells[k] = c
	}
	m.mu.Unlock()
	c.once.Do(func() { c.v = f() })
	return c.v
}

// allVPErrors returns the per-target CBG error using every vantage point
// (NaN where CBG cannot locate), computed once per context: Fig 2c, 3a,
// 3b, 4 and 7, baseline and shortestping all report this same row (Fig 7
// and baseline measured Distance(est, truth), which is ErrorKm's
// Distance(truth, est) bit for bit). Callers must not mutate the returned
// slice.
func (ctx *Context) allVPErrors() []float64 {
	ctx.allCBGOnce.Do(func() {
		c := ctx.C
		errs := make([]float64, len(c.Targets))
		par.For(len(c.Targets), func(ti int) {
			errs[ti] = math.NaN()
			if est, ok := c.TargetRTT.LocateSubset(ti, nil, geo.TwoThirdsC); ok {
				errs[ti] = c.ErrorKm(ti, est)
			}
		})
		ctx.allCBGErrs = errs
	})
	return ctx.allCBGErrs
}

// compactNaN returns the non-NaN values of v in order, in a fresh slice
// (dropNaN filters in place; this is its non-destructive sibling for
// shared slices).
func compactNaN(v []float64) []float64 {
	out := make([]float64, 0, len(v))
	for _, x := range v {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

// NewContextFromCampaign wraps an existing campaign (matrices must be
// built).
func NewContextFromCampaign(c *core.Campaign, opts Options) *Context {
	return &Context{C: c, SL: streetlevel.New(c), Opts: opts}
}

// StreetResults runs (once) the full street-level pipeline over every
// target, in parallel.
func (ctx *Context) StreetResults() []streetlevel.Result {
	ctx.slOnce.Do(func() {
		n := len(ctx.C.Targets)
		ctx.slResults = make([]streetlevel.Result, n)
		par.For(n, func(ti int) {
			ctx.slResults[ti] = ctx.SL.Geolocate(ti)
		})
	})
	return ctx.slResults
}

// cdfThresholdsKm are the error marks every CDF row reports.
var cdfThresholdsKm = []float64{1, 5, 10, 40, 100, 300, 1000}

// cdfHeader returns the standard CDF table header.
func cdfHeader(label string) []string {
	h := []string{label, "n", "median(km)"}
	for _, t := range cdfThresholdsKm {
		h = append(h, fmt.Sprintf("<=%.0fkm", t))
	}
	return h
}

// cdfRow renders one error sample as a CDF table row.
func cdfRow(label string, errs []float64) []string {
	row := []string{label, fmt.Sprintf("%d", len(errs))}
	if len(errs) == 0 {
		return append(row, "-")
	}
	row = append(row, fmt.Sprintf("%.1f", stats.MustMedian(errs)))
	for _, t := range cdfThresholdsKm {
		row = append(row, fmt.Sprintf("%.0f%%", 100*stats.FractionBelow(errs, t)))
	}
	return row
}

// sortedCopy returns a sorted copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// Experiment pairs an experiment ID with its runner.
type Experiment struct {
	ID  string
	Run func(*Context) *Report
}

// Registry lists every experiment in canonical order. Callers wanting
// incremental output iterate it directly; All computes and caches the lot.
func Registry() []Experiment {
	return []Experiment{
		{"table1", Table1},
		{"table2", Table2},
		{"fig2a", Fig2a},
		{"fig2b", Fig2b},
		{"fig2c", Fig2c},
		{"fig3a", Fig3a},
		{"fig3b", Fig3b},
		{"fig3c", Fig3c},
		{"fig4", Fig4},
		{"fig5a", Fig5a},
		{"fig5b", Fig5b},
		{"fig5c", Fig5c},
		{"fig6a", Fig6a},
		{"fig6b", Fig6b},
		{"fig6c", Fig6c},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"baseline", Baseline},
		{"deploy", Deploy},
		{"multistep", MultiStep},
		{"shortestping", ShortestPing},
		{"ablations", Ablations},
		{"chaos", Chaos},
	}
}

// All runs every experiment at the context's options, in a stable order.
// The reports are computed once per context and cached.
func All(ctx *Context) []*Report {
	ctx.allOnce.Do(func() {
		for _, e := range Registry() {
			ctx.allReports = append(ctx.allReports, runOne(ctx, e))
		}
	})
	return ctx.allReports
}

// runOne runs a single experiment under a campaign-phase span, so a trace
// shows one lane entry per figure.
func runOne(ctx *Context, e Experiment) *Report {
	defer ctx.C.Metrics.StartSpan("experiment." + e.ID).End()
	return e.Run(ctx)
}
