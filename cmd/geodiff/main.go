// Command geodiff compares two GEODSET2 artifacts record by record: which
// /24s were added or dropped, and for the ones both hold, how far the
// estimate moved and the radius changed — each as a share of the record's
// radius in A — and how many changed method or flag. It is what a change
// that moves artifact bytes quotes to show the move is harmless. It judges
// nothing: no thresholds, exit status 0 whatever it finds.
//
// Usage:
//
//	geodiff A.geodset2 B.geodset2
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"

	"geoloc/internal/dataset"
	"geoloc/internal/geo"
)

// shareEdges are the histogram's upper bucket edges, as a share of the
// record's radius in A.
var shareEdges = [...]float64{0, 0.001, 0.0025, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.025, 0.05, 0.1, 0.25, 0.5, 1}

// shareHist counts changes by their size over the A-side radius.
type shareHist struct {
	buckets [len(shareEdges) + 1]int // one per edge, then "more"
	noBase  int                      // changed, but the A-side radius is 0: no share to state
	max     float64
}

func (h *shareHist) add(change, base float64) {
	if change == 0 {
		h.buckets[0]++
		return
	}
	if !(base > 0) {
		h.noBase++
		return
	}
	share := change / base
	h.max = math.Max(h.max, share)
	h.buckets[sort.SearchFloat64s(shareEdges[:], share)]++
}

func (h *shareHist) write(w io.Writer, title string, n int) {
	fmt.Fprintf(w, "%s\n", title)
	cum := 0
	for i, c := range h.buckets {
		cum += c
		label := "more"
		switch {
		case i == 0:
			label = "unchanged"
		case i < len(shareEdges):
			label = fmt.Sprintf("<= %g%%", 100*shareEdges[i])
		}
		fmt.Fprintf(w, "  %-10s %10d  %6.2f%%\n", label, c, pct(cum, n))
	}
	fmt.Fprintf(w, "  %-10s %10d\n", "A radius 0", h.noBase)
	fmt.Fprintf(w, "  %-10s %9.3f%%\n", "max", 100*h.max)
}

func pct(a, n int) float64 {
	if n == 0 {
		return 0
	}
	return 100 * float64(a) / float64(n)
}

// methodChange is one (A method → B method) transition.
type methodChange struct{ from, to dataset.Method }

// result is everything geodiff reports.
type result struct {
	inA, inB, added, dropped, common int
	moved, reradiused, flagChanged   int
	methods                          map[methodChange]int
	move, radius                     shareHist
}

func (r *result) compare(a, b dataset.Record) {
	r.common++
	move := 0.0
	if a.Centroid != b.Centroid {
		r.moved++
		move = geo.Distance(a.Centroid, b.Centroid)
	}
	r.move.add(move, a.RadiusKm)
	if a.RadiusKm != b.RadiusKm {
		r.reradiused++
	}
	r.radius.add(math.Abs(b.RadiusKm-a.RadiusKm), a.RadiusKm)
	if a.Method != b.Method {
		r.methods[methodChange{a.Method, b.Method}]++
	}
	if a.Sanitized != b.Sanitized {
		r.flagChanged++
	}
}

// records streams r.All into a channel, closed when the scan ends; the
// returned func then reports how it ended.
func records(r *dataset.Reader2) (<-chan dataset.Record, func() error) {
	ch := make(chan dataset.Record, 1)
	var err error
	go func() {
		defer close(ch)
		err = r.All(func(rec dataset.Record) error {
			ch <- rec
			return nil
		})
	}()
	return ch, func() error { return err }
}

// diff merges the two prefix-ordered record streams in one pass and
// constant memory. Both streams are always read to their end, so neither
// producer goroutine outlives the call.
func diff(a, b *dataset.Reader2) (*result, error) {
	res := &result{methods: make(map[methodChange]int)}
	as, aErr := records(a)
	bs, bErr := records(b)
	ra, okA := <-as
	rb, okB := <-bs
	for okA || okB {
		switch {
		case !okB || (okA && ra.Prefix < rb.Prefix):
			res.inA++
			res.dropped++
			ra, okA = <-as
		case !okA || rb.Prefix < ra.Prefix:
			res.inB++
			res.added++
			rb, okB = <-bs
		default:
			res.inA++
			res.inB++
			res.compare(ra, rb)
			ra, okA = <-as
			rb, okB = <-bs
		}
	}
	if err := aErr(); err != nil {
		return nil, fmt.Errorf("A: %w", err)
	}
	if err := bErr(); err != nil {
		return nil, fmt.Errorf("B: %w", err)
	}
	return res, nil
}

func (r *result) write(w io.Writer) {
	fmt.Fprintf(w, "records      A %d  B %d\n", r.inA, r.inB)
	fmt.Fprintf(w, "added        %d\n", r.added)
	fmt.Fprintf(w, "dropped      %d\n", r.dropped)
	fmt.Fprintf(w, "in both      %d\n", r.common)
	fmt.Fprintf(w, "  moved          %d\n", r.moved)
	fmt.Fprintf(w, "  re-radiused    %d\n", r.reradiused)
	changed := 0
	for _, n := range r.methods {
		changed += n
	}
	fmt.Fprintf(w, "  method changed %d\n", changed)
	keys := make([]methodChange, 0, len(r.methods))
	for k := range r.methods {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		fmt.Fprintf(w, "    %s -> %s  %d\n", k.from, k.to, r.methods[k])
	}
	fmt.Fprintf(w, "  flag changed   %d\n", r.flagChanged)
	r.move.write(w, "move / A radius_km          records  cumulative", r.common)
	r.radius.write(w, "|radius change| / A radius  records  cumulative", r.common)
}

func run(pathA, pathB string, w io.Writer) error {
	a, err := dataset.Open2(pathA)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := dataset.Open2(pathB)
	if err != nil {
		return err
	}
	defer b.Close()
	res, err := diff(a, b)
	if err != nil {
		return err
	}
	res.write(w)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("geodiff: ")
	if len(os.Args) != 3 {
		log.Fatal("usage: geodiff A.geodset2 B.geodset2")
	}
	if err := run(os.Args[1], os.Args[2], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
