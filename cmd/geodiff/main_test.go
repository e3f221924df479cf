package main

import (
	"bytes"
	"strings"
	"testing"

	"geoloc/internal/dataset"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
)

func reader(t *testing.T, recs ...dataset.Record) *dataset.Reader2 {
	t.Helper()
	d := &dataset.Dataset{Hdr: dataset.Header{Version: dataset.Version, Profile: "none"}, Records: recs}
	r, err := dataset.NewReader2(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func rec(prefix uint32, at geo.Point, radius float64, m dataset.Method, sanitized bool) dataset.Record {
	return dataset.Record{Prefix: ipaddr.Prefix24(prefix), Centroid: at, RadiusKm: radius, Method: m, Sanitized: sanitized}
}

// TestDiffHandBuiltPair: every kind of difference once, at a known size.
func TestDiffHandBuiltPair(t *testing.T) {
	paris := geo.Point{Lat: 48.85, Lon: 2.35}
	a := reader(t,
		rec(10, paris, 100, dataset.MethodCBG, true),          // dropped
		rec(20, paris, 100, dataset.MethodCBG, true),          // unchanged
		rec(30, paris, 100, dataset.MethodCBG, true),          // moved 2 km = 2 %, radius +0.5 %
		rec(40, paris, 100, dataset.MethodCBG, true),          // method and flag change only
		rec(50, paris, 0, dataset.MethodReported, false),      // moved with no radius to compare to
		rec(60, paris, 100, dataset.MethodShortestPing, true), // moved 150 km: beyond the last edge
	)
	b := reader(t,
		rec(20, paris, 100, dataset.MethodCBG, true),
		rec(25, paris, 100, dataset.MethodCBG, true), // added
		rec(30, geo.Destination(paris, 90, 2), 100.5, dataset.MethodCBG, true),
		rec(40, paris, 100, dataset.MethodShortestPing, false),
		rec(50, geo.Destination(paris, 0, 5), 0, dataset.MethodReported, false),
		rec(60, geo.Destination(paris, 180, 150), 100, dataset.MethodShortestPing, true),
		rec(70, paris, 100, dataset.MethodCBG, true), // added, past A's end
	)
	res, err := diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.inA != 6 || res.inB != 7 || res.added != 2 || res.dropped != 1 || res.common != 5 {
		t.Errorf("counts A %d B %d added %d dropped %d common %d, want 6 7 2 1 5",
			res.inA, res.inB, res.added, res.dropped, res.common)
	}
	if res.moved != 3 || res.reradiused != 1 || res.flagChanged != 1 {
		t.Errorf("moved %d re-radiused %d flag %d, want 3 1 1", res.moved, res.reradiused, res.flagChanged)
	}
	if n := res.methods[methodChange{dataset.MethodCBG, dataset.MethodShortestPing}]; n != 1 || len(res.methods) != 1 {
		t.Errorf("method changes %v, want one cbg -> shortest-ping", res.methods)
	}
	// move: two unchanged, one in "<= 2%", one "more", one without a base.
	wantMove := [len(shareEdges) + 1]int{0: 2, 7: 1, len(shareEdges): 1}
	if res.move.buckets != wantMove || res.move.noBase != 1 {
		t.Errorf("move histogram %v noBase %d, want %v and 1", res.move.buckets, res.move.noBase, wantMove)
	}
	if res.move.max < 1.49 || res.move.max > 1.51 {
		t.Errorf("max move share %v, want 1.5", res.move.max)
	}
	// radius: four unchanged, one in "<= 0.5%".
	wantRadius := [len(shareEdges) + 1]int{0: 4, 3: 1}
	if res.radius.buckets != wantRadius || res.radius.noBase != 0 {
		t.Errorf("radius histogram %v noBase %d, want %v and 0", res.radius.buckets, res.radius.noBase, wantRadius)
	}

	var out bytes.Buffer
	res.write(&out)
	for _, want := range []string{"added        2", "dropped      1", "cbg -> shortest-ping  1", "<= 2%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestDiffSelf: an artifact against itself is all zeros.
func TestDiffSelf(t *testing.T) {
	paris := geo.Point{Lat: 48.85, Lon: 2.35}
	recs := []dataset.Record{
		rec(1, paris, 10, dataset.MethodCBG, true),
		rec(2, paris, 0, dataset.MethodReported, false),
	}
	res, err := diff(reader(t, recs...), reader(t, recs...))
	if err != nil {
		t.Fatal(err)
	}
	if res.added+res.dropped+res.moved+res.reradiused+res.flagChanged+len(res.methods) != 0 || res.common != 2 {
		t.Errorf("self-diff is not all zeros: %+v", res)
	}
	if res.move.buckets[0] != 2 || res.radius.buckets[0] != 2 {
		t.Errorf("self-diff histograms: move %v radius %v", res.move.buckets, res.radius.buckets)
	}
}
