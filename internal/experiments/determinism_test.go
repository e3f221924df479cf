package experiments_test

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"geoloc/internal/dataset"
	"geoloc/internal/experiments"
	"geoloc/internal/world"
)

// digestRun executes a full fixed-seed campaign — every experiment report
// plus the compiled dataset records — and returns the SHA-256 of the
// rendered output. Everything routed through the par pool feeds into it.
func digestRun(t *testing.T) [32]byte {
	t.Helper()
	ctx := experiments.NewContext(world.TinyConfig(), experiments.QuickOptions())
	h := sha256.New()
	for _, r := range experiments.All(ctx) {
		fmt.Fprintln(h, r.Render())
	}
	ds := dataset.Compile(ctx.C, dataset.Options{IncludeUnsanitized: true})
	for _, rec := range ds.Records {
		fmt.Fprintf(h, "%s %.17g %.17g %.17g %d %v\n",
			rec.Prefix, rec.Centroid.Lat, rec.Centroid.Lon, rec.RadiusKm, rec.Method, rec.Sanitized)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// TestAnalysisBitIdenticalAcrossWorkerCounts is the determinism contract
// of the parallel analysis engine (DESIGN.md §3.5) end to end: the same
// fixed-seed campaign must render byte-identical reports and dataset
// records at GOMAXPROCS 1, 4, and whatever the host has. Any worker that
// draws shared randomness, appends instead of index-addressing, or
// reduces out of order shows up here as a digest mismatch.
func TestAnalysisBitIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full tiny campaigns")
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	counts := []int{1, 4, orig}
	digests := make(map[int][32]byte, len(counts))
	for _, n := range counts {
		runtime.GOMAXPROCS(n)
		digests[n] = digestRun(t)
	}
	for _, n := range counts[1:] {
		if digests[n] != digests[counts[0]] {
			t.Errorf("GOMAXPROCS=%d digest %x differs from GOMAXPROCS=%d digest %x",
				n, digests[n], counts[0], digests[counts[0]])
		}
	}
	if got := fmt.Sprintf("%x", digests[1]); got != pinnedTinyDigest {
		t.Errorf("GOMAXPROCS=1 digest %s, pinned %s: a report or dataset record moved", got, pinnedTinyDigest)
	}
}

// pinnedTinyDigest is digestRun's output on the Tiny world. Optimisations
// of the analysis pass must leave it alone; a change that means to move a
// report or a record re-pins it and says so.
const pinnedTinyDigest = "19fb04f695e654e1aba00726681c2a035e4f37c77cf283791142d6809ce158df"
