package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQuantileBasics(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	} {
		got, err := Quantile(data, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%.2f) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	got, err := Quantile([]float64{0, 10}, 0.5)
	if err != nil || got != 5 {
		t.Errorf("Quantile = %v, %v; want 5", got, err)
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty sample should error")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("q<0 should error")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("q>1 should error")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	data := []float64{3, 1, 2}
	if _, err := Quantile(data, 0.5); err != nil {
		t.Fatal(err)
	}
	if data[0] != 3 || data[1] != 1 || data[2] != 2 {
		t.Errorf("input mutated: %v", data)
	}
}

func TestMedianOddEven(t *testing.T) {
	if m, _ := Median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m, _ := Median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestMustMedianPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMedian should panic on empty")
		}
	}()
	MustMedian(nil)
}

func TestMeanAndFractionBelow(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	if m, _ := Mean(data); m != 2.5 {
		t.Errorf("mean = %v", m)
	}
	if f := FractionBelow(data, 2); f != 0.5 {
		t.Errorf("FractionBelow(2) = %v", f)
	}
	if f := FractionBelow(data, 0); f != 0 {
		t.Errorf("FractionBelow(0) = %v", f)
	}
	if f := FractionBelow(nil, 10); f != 0 {
		t.Errorf("FractionBelow(empty) = %v", f)
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("Pearson = %v, %v; want 1", r, err)
	}
	yneg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(x, yneg)
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("negative Pearson = %v, want -1", r)
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(pairs []struct{ X, Y float64 }) bool {
		var x, y []float64
		for _, p := range pairs {
			if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
				continue
			}
			if math.Abs(p.X) > 1e100 || math.Abs(p.Y) > 1e100 {
				continue
			}
			x = append(x, p.X)
			y = append(y, p.Y)
		}
		r, err := Pearson(x, y)
		if err != nil {
			return true
		}
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("n<2 should error")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero variance should error")
	}
}

func TestLinRegressRecoversLine(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 3*v - 7
	}
	fit, err := LinRegress(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3) > 1e-9 || math.Abs(fit.Intercept+7) > 1e-9 {
		t.Errorf("fit = %+v, want slope 3 intercept -7", fit)
	}
	if math.Abs(fit.R-1) > 1e-9 {
		t.Errorf("R = %v, want 1", fit.R)
	}
}

func TestLinRegressErrors(t *testing.T) {
	if _, err := LinRegress([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero x-variance should error")
	}
	if _, err := LinRegress([]float64{1}, []float64{1}); err == nil {
		t.Error("n<2 should error")
	}
}

func TestSummarize(t *testing.T) {
	data := []float64{4, 1, 3, 2, 5}
	s, err := Summarize(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.P25 != 2 || s.P75 != 4 {
		t.Errorf("quartiles = %v, %v", s.P25, s.P75)
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("empty Summarize should error")
	}
}

func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var data []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				data = append(data, v)
			}
		}
		if len(data) == 0 {
			return true
		}
		s, err := Summarize(data)
		if err != nil {
			return false
		}
		return s.Min <= s.P10 && s.P10 <= s.P25 && s.P25 <= s.Median &&
			s.Median <= s.P75 && s.P75 <= s.P90 && s.P90 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarizeSingleValue(t *testing.T) {
	s, err := Summarize([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 42 || s.Max != 42 || s.Median != 42 || s.P10 != 42 || s.P90 != 42 {
		t.Errorf("single-value summary = %+v", s)
	}
}
