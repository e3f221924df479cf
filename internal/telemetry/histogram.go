package telemetry

import (
	"math"
	"sync/atomic"
)

// DefaultLatencyBoundsMs is the canonical request-latency bucket layout
// in milliseconds, shared by the serving tier's latency histogram and
// geobench's client-side percentile estimator so server- and
// client-observed latencies land in comparable buckets.
var DefaultLatencyBoundsMs = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000}

// Histogram counts observations into fixed buckets chosen at creation.
// Bucket b counts observations v with v <= bounds[b]; the final implicit
// bucket counts everything above the last bound. The float64 running sum
// is maintained with a CAS loop, so its low-order bits may depend on the
// order concurrent observers land — consumers must treat Sum as a
// reporting value, never as accounting state.
type Histogram struct {
	on     *atomic.Bool
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(on *atomic.Bool, bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{
		on:     on,
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
	}
}

// Observe records one value. No-op when the owning registry is disabled.
func (h *Histogram) Observe(v float64) {
	if h == nil || !h.on.Load() {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns the bucket upper bounds and their counts; the final
// count (one longer than bounds) is the overflow bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}
