package vpsel

import (
	"math"

	"geoloc/internal/cbg"
	"geoloc/internal/geo"
	"geoloc/internal/par"
)

// coverPairs is the pair source of one cover's point set: the pair (i, j)
// is log1p(TrigDistance(tr[i], tr[j])), read from a CoverTable's triangle
// when both points have a cell row there and computed otherwise. slot is
// nil when there is no table.
type coverPairs struct {
	tr   []geo.Trig
	slot []int32   // per point: its row in tri, or -1
	tri  []float64 // the pair of rows a < b at b(b−1)/2 + a
}

// logDist returns the table's value of pair (i, j), ok false when either
// point has no row in it or both share one; direct computes any pair.
// The miss is out of line so that logDist inlines: in the cover's loops a
// table hit is a load, not a call.
func (p *coverPairs) logDist(i, j int) (float64, bool) {
	if p.slot == nil {
		return 0, false
	}
	a, b := p.slot[i], p.slot[j]
	if a > b {
		a, b = b, a
	}
	if a < 0 || a == b {
		return 0, false
	}
	return p.tri[int(b)*(int(b)-1)/2+int(a)], true
}

// direct computes pair (i, j).
func (p *coverPairs) direct(i, j int) float64 {
	return math.Log1p(geo.TrigDistance(p.tr[i], p.tr[j]))
}

// CoverTable holds GreedyCover's pair values, log1p(TrigDistance), for the
// vantage points of one matrix that a region's candidate scan can return:
// regionCandidates keeps one VP per (AS, city), and that VP is almost
// always its key's first in matrix order. Each pair of key-first VPs is
// one float64 cell of a triangle; a pair with any other VP is computed as
// GreedyCover computes it. The cells are exact: TrigDistance is symmetric
// bit for bit (dlat and dlon negate exactly, math.Sin is odd and the
// CosLat product commutes), so a table cover equals GreedyCover over the
// same points. A table costs 4·k(k−1) bytes for k keys.
type CoverTable struct {
	all coverPairs // every VP of the matrix, matrix order
}

// NewCoverTable fills the table of repRTT's VPs, keyed by meta, across the
// par pool: each triangle row is one index-addressed unit.
func NewCoverTable(repRTT *cbg.Matrix, meta []VPMeta) *CoverTable {
	n := len(repRTT.VPs)
	p := coverPairs{tr: make([]geo.Trig, n), slot: make([]int32, n)}
	seen := newMetaSet(n)
	var first []int
	for vp := range repRTT.VPs {
		p.tr[vp], p.slot[vp] = repRTT.VPTrig(vp), -1
		if seen.add(meta, vp) {
			p.slot[vp] = int32(len(first))
			first = append(first, vp)
		}
	}
	k := len(first)
	p.tri = make([]float64, k*(k-1)/2)
	par.For(k, func(b int) {
		row := p.tri[b*(b-1)/2 : b*(b-1)/2+b]
		tb := p.tr[first[b]]
		for a := range row {
			row[a] = math.Log1p(geo.TrigDistance(p.tr[first[a]], tb))
		}
	})
	return &CoverTable{all: p}
}

// At returns log1p(TrigDistance) between VPs i and j.
func (t *CoverTable) At(i, j int) float64 {
	if d, ok := t.all.logDist(i, j); ok {
		return d
	}
	return t.all.direct(i, j)
}

// Cover is GreedyCover over the locations of vps, with the pair values
// read from the table: the picks index vps.
func (t *CoverTable) Cover(vps []int, n int) []int {
	p := coverPairs{tr: make([]geo.Trig, len(vps)), slot: make([]int32, len(vps)), tri: t.all.tri}
	for i, vp := range vps {
		p.tr[i], p.slot[i] = t.all.tr[vp], t.all.slot[vp]
	}
	return greedyCover(p, n, 1)
}
