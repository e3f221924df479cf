// Package stats implements the statistical tooling the paper's evaluation
// relies on: quantiles, CDF fractions, Pearson correlation, least-squares
// regression, and error-bar summaries for repeated-trial experiments.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregations applied to empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the data using linear
// interpolation between order statistics. It copies and sorts the input.
func Quantile(data []float64, q float64) (float64, error) {
	if len(data) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of range")
	}
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	return quantileSorted(s, q), nil
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the median of data.
func Median(data []float64) (float64, error) { return Quantile(data, 0.5) }

// MustMedian is Median that panics on an empty sample; for callers that have
// already checked non-emptiness.
func MustMedian(data []float64) float64 {
	m, err := Median(data)
	if err != nil {
		panic(err)
	}
	return m
}

// Mean returns the arithmetic mean of data.
func Mean(data []float64) (float64, error) {
	if len(data) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, v := range data {
		sum += v
	}
	return sum / float64(len(data)), nil
}

// FractionBelow returns the fraction of values ≤ x.
func FractionBelow(data []float64, x float64) float64 {
	if len(data) == 0 {
		return 0
	}
	n := 0
	for _, v := range data {
		if v <= x {
			n++
		}
	}
	return float64(n) / float64(len(data))
}

// Pearson returns the Pearson correlation coefficient of paired samples.
// It returns 0 and an error when the inputs differ in length, are shorter
// than two points, or have zero variance.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(x) < 2 {
		return 0, errors.New("stats: need at least two points")
	}
	mx, _ := Mean(x)
	my, _ := Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// LinearFit is a least-squares line y = Slope*x + Intercept with the
// correlation coefficient R of the fitted pairs.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R         float64
}

// LinRegress fits a least-squares line to the paired samples.
func LinRegress(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) || len(x) < 2 {
		return LinearFit{}, errors.New("stats: need two equal-length samples")
	}
	mx, _ := Mean(x)
	my, _ := Mean(y)
	var sxy, sxx float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: x has zero variance")
	}
	slope := sxy / sxx
	r, err := Pearson(x, y)
	if err != nil {
		r = 0
	}
	return LinearFit{Slope: slope, Intercept: my - slope*mx, R: r}, nil
}

// Summary captures the five-number-plus-mean summary of a sample, used for
// the error-bar plots (Fig 2a) in the replication.
type Summary struct {
	N                  int
	Min, Max           float64
	Mean, Median       float64
	P10, P25, P75, P90 float64
}

// Summarize computes a Summary of data.
func Summarize(data []float64) (Summary, error) {
	if len(data) == 0 {
		return Summary{}, ErrEmpty
	}
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	mean, _ := Mean(s)
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   mean,
		Median: quantileSorted(s, 0.5),
		P10:    quantileSorted(s, 0.10),
		P25:    quantileSorted(s, 0.25),
		P75:    quantileSorted(s, 0.75),
		P90:    quantileSorted(s, 0.90),
	}, nil
}
