package experiments

import (
	"fmt"
	"math"

	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/geo"
	"geoloc/internal/world"
)

// Fixed log-spaced histogram buckets for errors (km) and radius/error
// ratios: histPerDecade per decade from histLo to histLo·10^histDecades,
// plus an underflow and an overflow bucket. A median read from them is the
// geometric midpoint of its bucket, within 3 % of the exact one.
const (
	histLo        = 1e-3
	histDecades   = 8
	histPerDecade = 40
	histBuckets   = histDecades*histPerDecade + 2
	histHi        = histLo * 1e8 // histLo·10^histDecades
)

// logHist is a weighted histogram over the fixed buckets.
type logHist [histBuckets]float64

// histBucket is v's bucket: 0 below histLo (a zero error, a zero radius),
// the last above the range (a ratio over a zero error).
func histBucket(v float64) int {
	switch {
	case !(v >= histLo):
		return 0
	case v >= histHi:
		return histBuckets - 1
	}
	return min(1+int(math.Log10(v/histLo)*histPerDecade), histBuckets-2)
}

// median is the midpoint of the bucket holding half the weight; ok is
// false on an empty histogram.
func (h *logHist) median() (v float64, ok bool) {
	var total float64
	for _, w := range h {
		total += w
	}
	if total == 0 {
		return 0, false
	}
	var acc float64
	b := 0
	for ; b < histBuckets-1; b++ {
		if acc += h[b]; acc >= total/2 {
			break
		}
	}
	switch b {
	case 0:
		return 0, true
	case histBuckets - 1:
		return math.Inf(1), true
	}
	return histLo * math.Pow(10, (float64(b)-0.5)/histPerDecade), true
}

// scoreStratum is one row of the artifact score: its records' errors, the
// same weighted by their cities' populations, and their radius/error
// ratios, plus exact counts within each CDF threshold and within the
// record's own radius.
type scoreStratum struct {
	label    string
	n        int
	within   []int // one per cdfThresholdsKm
	inRadius int
	err      logHist
	popErr   logHist
	ratio    logHist
}

// add folds one record's error into the stratum.
func (s *scoreStratum) add(errKm, radiusKm, pop float64) {
	if s.within == nil {
		s.within = make([]int, len(cdfThresholdsKm))
	}
	s.n++
	for i, t := range cdfThresholdsKm {
		if errKm <= t {
			s.within[i]++
		}
	}
	if errKm <= radiusKm {
		s.inRadius++
	}
	s.err[histBucket(errKm)]++
	s.popErr[histBucket(errKm)] += pop
	s.ratio[histBucket(radiusKm/errKm)]++
}

// row renders the stratum as one table row.
func (s *scoreStratum) row() []string {
	row := []string{s.label, fmt.Sprintf("%d", s.n), fmtMedian(&s.err, "%.1f")}
	for _, k := range s.within {
		row = append(row, fmt.Sprintf("%.0f%%", 100*float64(k)/float64(s.n)))
	}
	return append(row,
		fmt.Sprintf("%.0f%%", 100*float64(s.inRadius)/float64(s.n)),
		fmtMedian(&s.ratio, "%.2f"),
		fmtMedian(&s.popErr, "%.1f"))
}

// fmtMedian renders a histogram's median, "-" when it is empty.
func fmtMedian(h *logHist, format string) string {
	v, ok := h.median()
	if !ok {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

// citySizeClasses are the population bounds of the city-size strata.
var citySizeClasses = []struct {
	label string
	below float64
}{{"city <100k", 1e5}, {"city 100k-1M", 1e6}, {"city >=1M", math.Inf(1)}}

// ScoreArtifact scores a finished streamed artifact against its campaign's
// truth: one pass over r.All, each record's error against the location
// sc.Truth gives its target, folded into fixed log-spaced histograms per
// stratum, so memory is O(strata × buckets) at any artifact size. The
// strata are the whole artifact, each continent, each city-size class,
// good and bad last mile, and each method tag (the per-geography lens of
// "Lost in the Prefix"); empty strata are left out. Columns: the median
// error and the shares within each CDF threshold, radius honesty (the
// share of truths inside the record's radius and the median radius/error
// ratio), and the median error weighted by the target city's population.
func ScoreArtifact(r *dataset.Reader2, sc *core.StreamCampaign) (*Report, error) {
	all := &scoreStratum{label: "all"}
	continents := make([]scoreStratum, len(world.AllContinents))
	contIdx := make(map[world.Continent]int, len(world.AllContinents))
	for i, ct := range world.AllContinents {
		continents[i].label = "continent " + ct.Code()
		contIdx[ct] = i
	}
	sizes := make([]scoreStratum, len(citySizeClasses))
	for i, c := range citySizeClasses {
		sizes[i].label = c.label
	}
	lastMile := []scoreStratum{{label: "last mile good"}, {label: "last mile bad"}}
	var methods []scoreStratum

	cities := sc.C.W.Cities
	err := r.All(func(rec dataset.Record) error {
		t := int64(rec.Prefix) - int64(sc.Spec.Base)
		if t < 0 || t >= int64(sc.Spec.Targets) {
			return fmt.Errorf("experiments: record %s is not a target of the campaign", rec.Prefix)
		}
		truth, ci := sc.Truth(int(t))
		city := &cities[ci]
		errKm := geo.Distance(rec.Centroid, truth)
		size := 0
		for size < len(citySizeClasses)-1 && city.Population >= citySizeClasses[size].below {
			size++
		}
		bad := 0
		if city.BadLastMile {
			bad = 1
		}
		for int(rec.Method) >= len(methods) {
			methods = append(methods, scoreStratum{label: "method " + dataset.Method(len(methods)).String()})
		}
		for _, s := range []*scoreStratum{all, &continents[contIdx[city.Continent]], &sizes[size], &lastMile[bad], &methods[rec.Method]} {
			s.add(errKm, rec.RadiusKm, city.Population)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:       "artifact-score",
		Title:    "Finished artifact scored against the campaign's truth",
		PaperRef: "§7.1",
		Header:   append(cdfHeader("stratum"), "in-radius", "median(radius/err)", "pop-wtd median(km)"),
	}
	for _, group := range [][]scoreStratum{{*all}, continents, sizes, lastMile, methods} {
		for i := range group {
			if group[i].n > 0 {
				rep.Rows = append(rep.Rows, group[i].row())
			}
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"medians read from log-spaced histograms (%d buckets per decade, within 3%%); shares are exact", histPerDecade))
	return rep, nil
}
