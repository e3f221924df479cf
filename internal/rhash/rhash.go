// Package rhash provides deterministic, keyed pseudo-randomness.
//
// Every stochastic decision in the simulator — where a city sits, which AS a
// probe joins, how much last-mile delay a host has, how much jitter a single
// ping experiences — is derived from a hash of the world seed and a stable
// label path. This makes whole worlds and whole measurement campaigns
// reproducible bit-for-bit from a single seed, which is what lets the test
// suite assert on exact counts.
package rhash

import "math"

// splitmix64 is the SplitMix64 finalizer; a fast, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash mixes an arbitrary number of 64-bit parts into a single 64-bit value.
func Hash(parts ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3) // pi fractional bits as a fixed offset
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return h
}

// Extend absorbs one more part into a finished hash: Hash absorbs its
// parts left to right, so Extend(Hash(a...), p) == Hash(a..., p). A caller
// keying many hashes on one shared prefix hashes the prefix once.
func Extend(h, p uint64) uint64 {
	return splitmix64(h ^ p)
}

// HashString folds a string label into a 64-bit value (FNV-1a).
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Stream is a deterministic random stream seeded from a hash key. The zero
// value is usable but every zero-seeded stream is identical; construct
// streams with New.
type Stream struct {
	state uint64
	// spare holds a second normal deviate from Box-Muller, NaN when absent.
	spare    float64
	hasSpare bool
}

// New returns a Stream keyed by the given parts. Streams with the same parts
// yield identical sequences.
func New(parts ...uint64) *Stream {
	return &Stream{state: Hash(parts...)}
}

// Keyed returns the stream keyed by a finished hash: Keyed(Hash(a...))
// yields New(a...)'s sequence. With Extend it starts one stream per key
// of a shared prefix without re-absorbing the prefix.
func Keyed(h uint64) Stream {
	return Stream{state: h}
}

// NewLabeled returns a Stream keyed by a seed and a string label.
func NewLabeled(seed uint64, label string) *Stream {
	return New(seed, HashString(label))
}

// Uint64 returns the next 64-bit value in the stream.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return splitmix64(s.state)
}

// Float64 returns the next value in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a value in [0, n). It panics when n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rhash: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (s *Stream) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Norm returns a standard normal deviate (Box-Muller).
func (s *Stream) Norm() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	var u, v, r float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		r = u*u + v*v
		if r > 0 && r < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(r) / r)
	s.spare = v * f
	s.hasSpare = true
	return u * f
}

// LogNormal returns a log-normal deviate with the given location (mu) and
// scale (sigma) parameters of the underlying normal.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.Norm())
}

// Exp returns an exponential deviate with the given mean.
func (s *Stream) Exp(mean float64) float64 {
	u := s.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}

// Pareto returns a bounded Pareto-like heavy-tailed deviate with the given
// minimum and shape alpha (> 0). Larger alpha concentrates near min.
func (s *Stream) Pareto(min, alpha float64) float64 {
	u := s.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return min / math.Pow(u, 1/alpha)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Choice returns a random index weighted by the non-negative weights. It
// panics when weights is empty or sums to zero.
func (s *Stream) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("rhash: Choice needs positive total weight")
	}
	x := s.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// UnitFloat derives a single deterministic value in [0, 1) from key parts
// without constructing a stream. Handy for per-entity static attributes.
func UnitFloat(parts ...uint64) float64 {
	return float64(Hash(parts...)>>11) / (1 << 53)
}
