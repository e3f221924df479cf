package experiments

import (
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/geo"
)

// score50k is ScoreArtifact's table for the 50k-target streamed artifact
// (experiments -scale 50000, sha256 28b2c820…acecea): the per-stratum
// accuracy of the dataset the serving tier publishes.
const score50k = `== artifact-score — Finished artifact scored against the campaign's truth (§7.1)
stratum         n      median(km)  <=1km  <=5km  <=10km  <=40km  <=100km  <=300km  <=1000km  in-radius  median(radius/err)  pop-wtd median(km)
all             50000  6.9         4%     42%    56%     68%     77%      91%      100%      100%       34.47               8.7               
continent AS    11935  9.2         3%     35%    51%     68%     87%      100%     100%      100%       30.73               5.8               
continent AF    5604   217.5       3%     13%    17%     24%     24%      74%      100%      100%       2.59                13.0              
continent OC    5483   5.2         5%     49%    56%     65%     83%      100%     100%      100%       43.40               5.2               
continent NA    9672   6.5         4%     43%    61%     75%     84%      100%     100%      100%       36.52               6.9               
continent EU    11820  3.4         8%     68%    89%     100%    100%     100%     100%      100%       77.18               6.9               
continent SA    5486   325.5       1%     19%    26%     37%     37%      46%      100%      100%       3.65                21.8              
city <100k      18671  54.6        5%     36%    40%     47%     61%      84%      100%      100%       12.23               41.0              
city 100k-1M    29958  5.5         4%     47%    67%     80%     85%      95%      100%      100%       45.97               6.1               
city >=1M       1371   12.2        1%     11%    37%     100%    100%     100%     100%      100%       48.70               11.5              
last mile good  38765  5.5         5%     48%    64%     75%     83%      91%      100%      100%       38.68               7.7               
last mile bad   11235  68.8        3%     21%    30%     43%     55%      92%      100%      100%       18.30               13.0              
method cbg      50000  6.9         4%     42%    56%     68%     77%      91%      100%      100%       34.47               8.7               
note: medians read from log-spaced histograms (40 buckets per decade, within 3%); shares are exact
`

// TestScoreArtifact50k pins the score of the 50k streamed artifact, and
// holds the histogram's median error to the exact one within the 3 % its
// bucket width allows.
func TestScoreArtifact50k(t *testing.T) {
	src, err := core.NewStreamScale(50000, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "a.geodset2")
	if _, err := dataset.CompileExternal(out, src, dataset.StreamHeader(src), dataset.Options{}, nil,
		dataset.StreamConfig{SpillDir: filepath.Join(dir, "spill")}); err != nil {
		t.Fatal(err)
	}
	r2, err := dataset.Open2(out)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	rep, err := ScoreArtifact(r2, src)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Render(); got != score50k {
		t.Errorf("50k artifact score moved:\n%s\nwant:\n%s", got, score50k)
	}

	var errs []float64
	if err := r2.All(func(rec dataset.Record) error {
		truth, _ := src.Truth(int(rec.Prefix - src.Spec.Base))
		errs = append(errs, geo.Distance(rec.Centroid, truth))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(errs)
	var h logHist
	for _, e := range errs {
		h[histBucket(e)]++
	}
	exact := (errs[len(errs)/2-1] + errs[len(errs)/2]) / 2
	if got, _ := h.median(); math.Abs(got/exact-1) > 0.03 {
		t.Errorf("histogram median %.3f km, exact %.3f km: more than 3%% apart", got, exact)
	}
}

// TestScoreArtifactRejectsForeignRecords: a record whose prefix is not one
// of the campaign's targets has no truth to score against.
func TestScoreArtifactRejectsForeignRecords(t *testing.T) {
	src, err := core.NewStreamScale(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := &dataset.Dataset{Records: []dataset.Record{{Prefix: src.Spec.Base + 10, Method: dataset.MethodCBG}}}
	out := filepath.Join(t.TempDir(), "foreign.geodset2")
	if err := ds.Write(out); err != nil {
		t.Fatal(err)
	}
	r2, err := dataset.Open2(out)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, err := ScoreArtifact(r2, src); err == nil || !strings.Contains(err.Error(), "not a target") {
		t.Fatalf("ScoreArtifact on a foreign record: err = %v, want one naming it", err)
	}
}

// TestHistBucketEdges: zero, NaN and values below the range land in the
// underflow bucket, +Inf and values past it in the overflow bucket, and a
// bucket's midpoint maps back to it.
func TestHistBucketEdges(t *testing.T) {
	for _, v := range []float64{0, math.NaN(), histLo / 2, -1} {
		if b := histBucket(v); b != 0 {
			t.Errorf("histBucket(%v) = %d, want 0", v, b)
		}
	}
	for _, v := range []float64{histHi, math.Inf(1), 1e300} {
		if b := histBucket(v); b != histBuckets-1 {
			t.Errorf("histBucket(%v) = %d, want %d", v, b, histBuckets-1)
		}
	}
	for b := 1; b < histBuckets-1; b++ {
		mid := histLo * math.Pow(10, (float64(b)-0.5)/histPerDecade)
		if got := histBucket(mid); got != b {
			t.Fatalf("bucket %d's midpoint %g maps to %d", b, mid, got)
		}
	}
}
