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
// The cells are stored one target at a time: Column(t) is target t's
// measurements in VP order, which every locate reads sequentially, and
// SetRow scatters one VP's batch against every target into the columns.
// The per-VP trigonometry and the latitude order that lets a region scan
// skip the VPs outside its tightest circle's latitude band (LatBand)
// depend only on the VPs, so NewMatrix builds them once.
//
// Every reader of a target's column over a VP subset takes the subset as
// a list of VP indices, nil meaning every VP, and walks it through
// rows: one loop whichever the subset.
type Matrix struct {
	// VPs holds the (reported) vantage point locations.
	VPs []geo.Point

	cols   [][]float32 // [target][vp]
	vpTrig []geo.Trig  // per-VP precomputed trig
	all    []int       // every VP index in order, the nil subset
	// byLat holds the VP indices ascending by vpTrig's LatRad, ties in
	// index order, and lats those latitudes in the same order.
	byLat []int32
	lats  []float64

	meters matrixMeters
}

// Unresponsive is the sentinel for failed measurements in a Matrix.
var Unresponsive = float32(math.NaN())

// IsUnresponsive reports whether a cell holds no usable measurement: NaN
// (the Unresponsive sentinel) or negative.
func IsUnresponsive(rtt float32) bool {
	return rtt != rtt || rtt < 0
}

// NewMatrix allocates a matrix for the given vantage points and target
// count, initialized to Unresponsive, whose locates meter into reg (nil
// meters nothing).
func NewMatrix(vps []geo.Point, targets int, reg *telemetry.Registry) *Matrix {
	m := &Matrix{VPs: vps, cols: make([][]float32, targets), meters: newMatrixMeters(reg)}
	cells := make([]float32, targets*len(vps))
	for i := range cells {
		cells[i] = Unresponsive
	}
	for t := range m.cols {
		m.cols[t] = cells[t*len(vps) : (t+1)*len(vps) : (t+1)*len(vps)]
	}
	m.vpTrig = make([]geo.Trig, len(vps))
	m.all = make([]int, len(vps))
	m.byLat = make([]int32, len(vps))
	for i, p := range vps {
		m.vpTrig[i] = geo.MakeTrig(p)
		m.all[i] = i
		m.byLat[i] = int32(i)
	}
	slices.SortStableFunc(m.byLat, func(a, b int32) int {
		return cmp.Compare(m.vpTrig[a].LatRad, m.vpTrig[b].LatRad)
	})
	m.lats = make([]float64, len(m.byLat))
	for i, vp := range m.byLat {
		m.lats[i] = m.vpTrig[vp].LatRad
	}
	return m
}

// Targets returns the matrix's target count.
func (m *Matrix) Targets() int { return len(m.cols) }

// Column returns target t's cells indexed by VP. It is the matrix's own
// storage: callers read it and never write it.
func (m *Matrix) Column(t int) []float32 { return m.cols[t] }

// SetRow stores one VP's cells, row[t] for every target t. It writes only
// that VP's cells, so calls for distinct VPs may run concurrently.
func (m *Matrix) SetRow(vp int, row []float32) {
	for t, v := range row {
		m.cols[t][vp] = v
	}
}

// LatBand returns the VPs whose latitude (VPTrig's LatRad) lies in
// [lo, hi] radians, ascending by latitude with ties in index order.
func (m *Matrix) LatBand(lo, hi float64) []int32 {
	i := sort.SearchFloat64s(m.lats, lo)
	j := i + sort.Search(len(m.lats)-i, func(k int) bool { return m.lats[i+k] > hi })
	return m.byLat[i:j]
}

// VPTrig returns the precomputed trigonometry of a vantage point.
func (m *Matrix) VPTrig(vp int) geo.Trig { return m.vpTrig[vp] }

// rows returns the VPs a subset names: subset itself, or every VP in
// index order when it is nil.
func (m *Matrix) rows(subset []int) []int {
	if subset == nil {
		return m.all
	}
	return subset
}

// AddConstraints adds to sm one circle per responsive subset VP (nil
// means all), in subset order: the VP's disk at the given speed.
func (m *Matrix) AddConstraints(sm *geo.Sampler, target int, subset []int, speedKmPerMs float64) {
	col, subset := m.cols[target], m.rows(subset)
	sm.Grow(len(subset))
	for _, vp := range subset {
		if rtt := col[vp]; !IsUnresponsive(rtt) {
			sm.AddTrig(m.VPs[vp], m.vpTrig[vp], geo.RTTToDistanceKm(float64(rtt), speedKmPerMs))
		}
	}
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

	// Pass 1: tightest constraint.
	col, subset := m.cols[target], m.rows(subset)
	tightIdx, tightRadius := -1, math.Inf(1)
	for _, vp := range subset {
		rtt := col[vp]
		if IsUnresponsive(rtt) {
			continue
		}
		if r := geo.RTTToDistanceKm(float64(rtt), speedKmPerMs); r < tightRadius {
			tightIdx, tightRadius = vp, r
		}
	}
	if tightIdx < 0 {
		m.meters.locatesEmpty.Inc()
		return geo.Point{}, false
	}
	tightT := m.vpTrig[tightIdx]

	// Pass 2: keep only constraints that can cut the tightest disk (the
	// containment test over precomputed trig, bit-identical to
	// Circle.ContainsCircle).
	sc := locatePool.Get().(*locateScratch)
	kept := sc.kept[:0]
	for _, vp := range subset {
		rtt := col[vp]
		if vp == tightIdx || IsUnresponsive(rtt) {
			continue
		}
		r := geo.RTTToDistanceKm(float64(rtt), speedKmPerMs)
		if geo.TrigCuts(m.vpTrig[vp], tightT, tightRadius, r) {
			kept = append(kept, keptCircle{vp: int32(vp), radius: r})
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
		sm.AddTrig(m.VPs[k.vp], m.vpTrig[k.vp], k.radius)
	}
	sm.AddTrig(m.VPs[tightIdx], tightT, tightRadius)
	p, ok := sm.Centroid()

	sc.kept = kept
	locatePool.Put(sc)
	return p, ok
}

// ShortestPingSubset maps the target to the subset VP (nil means all) with
// the lowest RTT, the first on ties.
func (m *Matrix) ShortestPingSubset(target int, subset []int) (geo.Point, bool) {
	var buf [1]int
	if best := m.ClosestVPs(buf[:0], target, subset, 1); len(best) > 0 {
		return m.VPs[best[0]], true
	}
	return geo.Point{}, false
}

// ClosestVPs appends to dst the k responsive subset VPs (nil means all)
// with the lowest RTT to the target, ascending by RTT, ties in subset
// order. Fewer than k are appended when the subset has fewer responsive
// VPs. It allocates nothing when dst has room for k more.
func (m *Matrix) ClosestVPs(dst []int, target int, subset []int, k int) []int {
	col, subset, base := m.cols[target], m.rows(subset), len(dst)
	if k <= 0 {
		return dst
	}
	if k >= len(subset) {
		// Every responsive VP is picked: collect them and stable-sort by
		// RTT, which is the insertion below without its quadratic cost.
		for _, vp := range subset {
			if !IsUnresponsive(col[vp]) {
				dst = append(dst, vp)
			}
		}
		slices.SortStableFunc(dst[base:], func(a, b int) int { return cmp.Compare(col[a], col[b]) })
		return dst
	}
	// Insertion into the k best so far. Once k are picked, a VP no faster
	// than the last pick is passed over, and an inserted VP goes after
	// every pick of equal RTT, so ties keep subset order.
	var last float32 // the last pick's RTT once k are picked
	for _, vp := range subset {
		rtt := col[vp]
		if IsUnresponsive(rtt) || len(dst)-base == k && rtt >= last {
			continue
		}
		pos := len(dst)
		for pos > base && col[dst[pos-1]] > rtt {
			pos--
		}
		if len(dst)-base < k {
			dst = append(dst, 0)
		}
		copy(dst[pos+1:], dst[pos:len(dst)-1])
		dst[pos] = vp
		last = col[dst[len(dst)-1]]
	}
	return dst
}
