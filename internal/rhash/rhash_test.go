package rhash

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	f := func(a, b uint64) bool {
		return Hash(a, b) == Hash(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashOrderSensitive(t *testing.T) {
	if Hash(1, 2) == Hash(2, 1) {
		t.Error("Hash should be order sensitive")
	}
}

// TestExtendKeyed holds the prefix-key shortcut to the full hash: for
// 0..4 leading parts, Extend(Hash(a...), p) == Hash(a..., p), and
// Keyed(Hash(a...)) yields New(a...)'s sequence.
func TestExtendKeyed(t *testing.T) {
	f := func(a [4]uint64, p uint64) bool {
		for n := 0; n <= len(a); n++ {
			prefix := a[:n]
			if Extend(Hash(prefix...), p) != Hash(append(prefix[:n:n], p)...) {
				return false
			}
			k, s := Keyed(Hash(prefix...)), New(prefix...)
			for i := 0; i < 8; i++ {
				if k.Uint64() != s.Uint64() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashStringDistinct(t *testing.T) {
	if HashString("alpha") == HashString("beta") {
		t.Error("distinct strings should hash differently")
	}
	if HashString("") == HashString("a") {
		t.Error("empty and non-empty should differ")
	}
}

func TestStreamReproducible(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestStreamDifferentSeedsDiffer(t *testing.T) {
	a := New(42, 7)
	b := New(42, 8)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("differently-seeded streams agree %d/64 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(2)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %.4f, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) covered %d values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(4)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %.4f, want ~1", variance)
	}
}

func TestExpMean(t *testing.T) {
	s := New(5)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(3.5)
	}
	if mean := sum / n; math.Abs(mean-3.5) > 0.1 {
		t.Errorf("exp mean = %.3f, want ~3.5", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(6)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("lognormal must be positive, got %v", v)
		}
	}
}

func TestParetoAboveMin(t *testing.T) {
	s := New(7)
	for i := 0; i < 1000; i++ {
		if v := s.Pareto(2, 1.5); v < 2 {
			t.Fatalf("pareto below min: %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(8)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit rate = %.4f", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(9)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	s := New(10)
	counts := [3]int{}
	const n = 90000
	for i := 0; i < n; i++ {
		counts[s.Choice([]float64{1, 2, 6})]++
	}
	if f := float64(counts[2]) / n; math.Abs(f-6.0/9) > 0.02 {
		t.Errorf("heaviest weight picked %.3f of the time, want ~0.667", f)
	}
	if f := float64(counts[0]) / n; math.Abs(f-1.0/9) > 0.02 {
		t.Errorf("lightest weight picked %.3f of the time, want ~0.111", f)
	}
}

func TestChoicePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty weights")
		}
	}()
	New(1).Choice(nil)
}

func TestUnitFloatDeterministic(t *testing.T) {
	if UnitFloat(1, 2, 3) != UnitFloat(1, 2, 3) {
		t.Error("UnitFloat must be deterministic")
	}
	if v := UnitFloat(9, 9); v < 0 || v >= 1 {
		t.Errorf("UnitFloat out of range: %v", v)
	}
}

func TestNewLabeledDistinct(t *testing.T) {
	a := NewLabeled(1, "lastmile")
	b := NewLabeled(1, "jitter")
	if a.Uint64() == b.Uint64() {
		t.Error("different labels should produce different streams")
	}
}
