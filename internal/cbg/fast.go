package cbg

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"geoloc/internal/geo"
	"geoloc/internal/telemetry"
)

// Matrix is a dense vantage-point × target RTT matrix, the working format
// of the subset experiments (Fig 2a–2c probe 10k VPs against 723 targets
// hundreds of times; building geo.Region values per trial would dominate
// the runtime). RTTs are float32 milliseconds; NaN marks unresponsive
// measurements.
//
// A fully-populated matrix should be sealed (Seal) before the analysis
// phases read it: sealing builds the read-optimized views — per-VP
// trigonometry, a [target][vp] transpose that lets the locate paths scan
// a target's measurements sequentially instead of striding across rows,
// and a latitude order that lets a region scan skip the VPs outside its
// tightest circle's latitude band (LatBand). All read methods work on
// unsealed matrices too (tests hand-build small ones), just without the
// cached views.
type Matrix struct {
	// VPs holds the (reported) vantage point locations.
	VPs []geo.Point
	// RTT is indexed [vp][target].
	RTT [][]float32

	sealOnce sync.Once
	vpTrig   []geo.Trig  // per-VP precomputed trig; nil until sealed
	cols     [][]float32 // [target][vp] transpose; nil until sealed
	// byLat holds the VP indices ascending by vpTrig's LatRad, ties in
	// index order, and lats those latitudes in the same order; nil until
	// sealed.
	byLat []int32
	lats  []float64

	meters matrixMeters
}

// Unresponsive is the sentinel for failed measurements in a Matrix.
var Unresponsive = float32(math.NaN())

// NewMatrix allocates a matrix for the given vantage points and target
// count, initialized to Unresponsive, whose locates meter into reg (nil
// meters nothing).
func NewMatrix(vps []geo.Point, targets int, reg *telemetry.Registry) *Matrix {
	m := &Matrix{VPs: vps, RTT: make([][]float32, len(vps)), meters: newMatrixMeters(reg)}
	cells := make([]float32, len(vps)*targets)
	for i := range cells {
		cells[i] = Unresponsive
	}
	for i := range m.RTT {
		m.RTT[i] = cells[i*targets : (i+1)*targets : (i+1)*targets]
	}
	return m
}

// Seal freezes the matrix for analysis: it caches per-VP trigonometry and
// a column-major copy of RTT. Call it once the RTT cells are final —
// sealing is idempotent, but writes to RTT after Seal are not reflected
// in the cached views. Campaigns seal right after the bulk measurement
// phases complete.
func (m *Matrix) Seal() {
	m.sealOnce.Do(func() {
		m.vpTrig = make([]geo.Trig, len(m.VPs))
		for i, p := range m.VPs {
			m.vpTrig[i] = geo.MakeTrig(p)
		}
		targets := 0
		if len(m.RTT) > 0 {
			targets = len(m.RTT[0])
		}
		flat := make([]float32, targets*len(m.RTT))
		m.cols = make([][]float32, targets)
		for t := range m.cols {
			m.cols[t] = flat[t*len(m.RTT) : (t+1)*len(m.RTT)]
		}
		for vp, row := range m.RTT {
			for t, v := range row {
				m.cols[t][vp] = v
			}
		}
		m.byLat = make([]int32, len(m.VPs))
		for i := range m.byLat {
			m.byLat[i] = int32(i)
		}
		slices.SortStableFunc(m.byLat, func(a, b int32) int {
			return cmp.Compare(m.vpTrig[a].LatRad, m.vpTrig[b].LatRad)
		})
		m.lats = make([]float64, len(m.byLat))
		for i, vp := range m.byLat {
			m.lats[i] = m.vpTrig[vp].LatRad
		}
	})
}

// LatBand returns the VPs whose cached latitude (VPTrig's LatRad) lies in
// [lo, hi] radians, ascending by latitude with ties in index order, and
// true. On an unsealed matrix it returns nil and false: the caller scans
// every VP.
func (m *Matrix) LatBand(lo, hi float64) ([]int32, bool) {
	if m.byLat == nil {
		return nil, false
	}
	i := sort.SearchFloat64s(m.lats, lo)
	j := i + sort.Search(len(m.lats)-i, func(k int) bool { return m.lats[i+k] > hi })
	return m.byLat[i:j], true
}

// Sealed reports whether Seal has run.
func (m *Matrix) Sealed() bool { return m.cols != nil }

// VPTrig returns the precomputed trigonometry of a vantage point
// (computed on the fly when the matrix is unsealed).
func (m *Matrix) VPTrig(vp int) geo.Trig {
	if m.vpTrig != nil {
		return m.vpTrig[vp]
	}
	return geo.MakeTrig(m.VPs[vp])
}

// column returns the sealed [vp] column of a target, nil when unsealed.
func (m *Matrix) column(target int) []float32 {
	if m.cols != nil {
		return m.cols[target]
	}
	return nil
}

// keptCircle is a surviving constraint in a locate: the VP and its disk
// radius.
type keptCircle struct {
	vp     int32
	radius float64
}

// locateScratch holds the per-locate working set; pooled so steady-state
// locates allocate nothing. Pool contents never influence results.
type locateScratch struct {
	kept []keptCircle
	sm   geo.Sampler
}

var locatePool = sync.Pool{New: func() any { return new(locateScratch) }}

// LocateSubset runs CBG for one target using only the vantage points listed
// in subset (indices into the matrix; nil means all). It avoids building a
// Region: it finds the tightest disk, drops redundant constraints, and
// samples the survivors. The returned bool is false when no VP responded or
// the intersection is empty.
func (m *Matrix) LocateSubset(target int, subset []int, speedKmPerMs float64) (geo.Point, bool) {
	m.meters.locates.Inc()
	col := m.column(target)

	// Pass 1: tightest constraint.
	tightIdx, tightRadius := -1, math.Inf(1)
	if subset == nil {
		for vp := range m.RTT {
			rtt := m.rtt(col, vp, target)
			if isUnresponsive(rtt) {
				continue
			}
			if r := geo.RTTToDistanceKm(float64(rtt), speedKmPerMs); r < tightRadius {
				tightIdx, tightRadius = vp, r
			}
		}
	} else {
		for _, vp := range subset {
			rtt := m.rtt(col, vp, target)
			if isUnresponsive(rtt) {
				continue
			}
			if r := geo.RTTToDistanceKm(float64(rtt), speedKmPerMs); r < tightRadius {
				tightIdx, tightRadius = vp, r
			}
		}
	}
	if tightIdx < 0 {
		m.meters.locatesEmpty.Inc()
		return geo.Point{}, false
	}
	tightT := m.VPTrig(tightIdx)

	// Pass 2: keep only constraints that can cut the tightest disk (the
	// containment test over precomputed trig, bit-identical to
	// Circle.ContainsCircle).
	sc := locatePool.Get().(*locateScratch)
	kept := sc.kept[:0]
	if subset == nil {
		for vp := range m.RTT {
			rtt := m.rtt(col, vp, target)
			if vp == tightIdx || isUnresponsive(rtt) {
				continue
			}
			r := geo.RTTToDistanceKm(float64(rtt), speedKmPerMs)
			if geo.TrigCuts(m.VPTrig(vp), tightT, tightRadius, r) {
				kept = append(kept, keptCircle{vp: int32(vp), radius: r})
			}
		}
	} else {
		for _, vp := range subset {
			if vp == tightIdx {
				continue
			}
			rtt := m.rtt(col, vp, target)
			if isUnresponsive(rtt) {
				continue
			}
			r := geo.RTTToDistanceKm(float64(rtt), speedKmPerMs)
			if geo.TrigCuts(m.VPTrig(vp), tightT, tightRadius, r) {
				kept = append(kept, keptCircle{vp: int32(vp), radius: r})
			}
		}
	}

	// In dense deployments thousands of circles survive the containment
	// filter, but the lens is shaped by its tightest constraints: beyond
	// the few dozen smallest radii the remaining circles cut nothing the
	// smaller ones have not already cut. Capping the constraint set keeps
	// the centroid sampling O(1) per locate, which matters when the subset
	// experiments run hundreds of thousands of locates.
	const maxConstraints = 64
	if len(kept) > maxConstraints {
		sort.Slice(kept, func(i, j int) bool { return kept[i].radius < kept[j].radius })
		kept = kept[:maxConstraints]
	}
	m.meters.constraintsKept.Observe(float64(len(kept) + 1))

	sm := &sc.sm
	sm.Reset()
	for _, k := range kept {
		sm.AddTrig(m.VPs[k.vp], m.VPTrig(int(k.vp)), k.radius)
	}
	sm.AddTrig(m.VPs[tightIdx], tightT, tightRadius)
	p, ok := sm.Centroid()

	sc.kept = kept
	locatePool.Put(sc)
	return p, ok
}

// rtt reads one cell, through the column when available.
func (m *Matrix) rtt(col []float32, vp, target int) float32 {
	if col != nil {
		return col[vp]
	}
	return m.RTT[vp][target]
}

// ShortestPingSubset maps the target to the subset VP with the lowest RTT.
func (m *Matrix) ShortestPingSubset(target int, subset []int) (geo.Point, bool) {
	best, bestRTT := -1, float32(math.Inf(1))
	col := m.column(target)
	if col != nil && subset == nil {
		for vp, rtt := range col {
			if isUnresponsive(rtt) {
				continue
			}
			if rtt < bestRTT {
				best, bestRTT = vp, rtt
			}
		}
	} else {
		eachVP(m, subset, func(vp int) {
			rtt := m.rtt(col, vp, target)
			if isUnresponsive(rtt) {
				return
			}
			if rtt < bestRTT {
				best, bestRTT = vp, rtt
			}
		})
	}
	if best < 0 {
		return geo.Point{}, false
	}
	return m.VPs[best], true
}

// ClosestVPs returns the indices of the k responsive vantage points with
// the lowest RTT to the target, ascending by RTT. Fewer than k are returned
// when the target has fewer responsive VPs.
func (m *Matrix) ClosestVPs(target, k int) []int {
	if k <= 0 {
		return []int{}
	}
	col := m.column(target)
	if k >= len(m.RTT) {
		// Everything responsive is returned: collect once and stable-sort
		// by RTT instead of running the quadratic insertion below. The
		// insertion sort keeps equal-RTT VPs in ascending-index order, so
		// the stable sort reproduces it exactly.
		type cand struct {
			vp  int
			rtt float32
		}
		all := make([]cand, 0, len(m.RTT))
		for vp := range m.RTT {
			rtt := m.rtt(col, vp, target)
			if isUnresponsive(rtt) {
				continue
			}
			all = append(all, cand{vp: vp, rtt: rtt})
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].rtt < all[j].rtt })
		out := make([]int, len(all))
		for i, c := range all {
			out[i] = c.vp
		}
		return out
	}
	type cand struct {
		vp  int
		rtt float32
	}
	// Simple selection keeps the k best in a small sorted slice; k is ≤ 10
	// in every use (the VP selection algorithm's subsets).
	best := make([]cand, 0, k+1)
	for vp := range m.RTT {
		rtt := m.rtt(col, vp, target)
		if isUnresponsive(rtt) {
			continue
		}
		pos := len(best)
		for pos > 0 && best[pos-1].rtt > rtt {
			pos--
		}
		if pos >= k {
			continue
		}
		best = append(best, cand{})
		copy(best[pos+1:], best[pos:])
		best[pos] = cand{vp: vp, rtt: rtt}
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make([]int, len(best))
	for i, c := range best {
		out[i] = c.vp
	}
	return out
}

func eachVP(m *Matrix, subset []int, f func(vp int)) {
	if subset == nil {
		for vp := range m.RTT {
			f(vp)
		}
		return
	}
	for _, vp := range subset {
		f(vp)
	}
}

func isUnresponsive(rtt float32) bool {
	return rtt != rtt || rtt < 0 // NaN or negative
}
