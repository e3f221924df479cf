package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geoloc/internal/dataset"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/rhash"
	"geoloc/internal/serve"
	"geoloc/internal/telemetry"
)

// oracleBlockSize and oracleMaxBatch are small so one modest artifact has
// many block boundaries and the 413 case needs only a short body.
const (
	oracleBlockSize = 8
	oracleMaxBatch  = 48
)

// oracleDataset draws a seeded record set in two runs, one in each half
// of the address space so a two-replica fleet splits it, with gaps of
// 1–3 /24s between neighbours: every block then has absent /24s inside
// its key range.
func oracleDataset() *dataset.Dataset {
	rs := rhash.New(0x0D1FF, 19)
	ds := &dataset.Dataset{Hdr: dataset.Header{Version: dataset.Version, ConfigHash: 0xFEED, Seed: 19, Profile: "synthetic"}}
	for _, base := range []string{"10.20.0.0", "200.7.250.0"} {
		p := ipaddr.Prefix24Of(ipaddr.MustParse(base))
		for i := 0; i < 60; i++ {
			p += ipaddr.Prefix24(1 + rs.Intn(3))
			r := dataset.Record{
				Prefix:    p,
				Centroid:  geo.Point{Lat: rs.Range(-80, 80), Lon: rs.Range(-179, 179)},
				RadiusKm:  rs.Range(0.5, 900),
				Method:    dataset.MethodCBG,
				Sanitized: rs.Bool(0.8),
			}
			if rs.Bool(0.2) {
				r.Method = dataset.MethodShortestPing
			}
			ds.Records = append(ds.Records, r)
		}
	}
	return ds
}

// answer is one path's reply to one request.
type answer struct {
	status int
	body   string
}

// via drives an http.Handler without a socket in front of it.
func via(h http.Handler) func(method, target, body string) answer {
	return func(method, target, body string) answer {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return answer{rec.Code, rec.Body.String()}
	}
}

// TestDifferentialOracle: one seeded artifact, one probe list, every way
// the system can answer it. A linear scan of the source records is the
// oracle; Reader2 over a mapping and over the same bytes on the heap must
// return its record, and the serve handler over the GEODSET2 file, the
// serve handler over the published in-process dataset and the router in
// front of a two-replica fleet — once sharing the dataset's heap image,
// once with every replica mapping the file — must return the status and
// the exact JSON bytes the oracle's record renders to — for hits, misses,
// malformed input, empty input, an over-limit batch and an over-cap body
// alike. Reader2.FindBatch answers the same probe list in one call.
func TestDifferentialOracle(t *testing.T) {
	ds := oracleDataset()
	linear := func(a ipaddr.Addr) (dataset.Record, bool) {
		for _, r := range ds.Records {
			if r.Prefix.Contains(a) {
				return r, true
			}
		}
		return dataset.Record{}, false
	}

	path := filepath.Join(t.TempDir(), "oracle.geodset2")
	w, err := dataset.NewWriter2(path, ds.Hdr, oracleBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Records {
		if err := w.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}

	// The two reader backings.
	mapped, err := dataset.Open2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := dataset.NewReader2(img)
	if err != nil {
		t.Fatal(err)
	}
	defer heap.Close()
	if heap.Mapped() {
		t.Fatal("a reader over caller-supplied bytes reports a mapping")
	}
	readers := map[string]*dataset.Reader2{"reader2/mapped": mapped, "reader2/heap": heap}

	// The four HTTP paths.
	scfg := serve.Config{MaxBatch: oracleMaxBatch}
	fileSrv := serve.New(scfg, telemetry.New())
	art, err := fileSrv.Reload(path)
	if err != nil {
		t.Fatal(err)
	}
	defer art.R2.Close()
	ramSrv := serve.New(scfg, telemetry.New())
	if _, err := ramSrv.Publish(ds, "test:oracle"); err != nil {
		t.Fatal(err)
	}
	_, rt, _ := startFleetRouter(t, ds, "test:oracle", 2, scfg, Config{})
	fileFleet, err := NewFileFleet(2, path, scfg)
	if err != nil {
		t.Fatal(err)
	}
	fileRt, _ := frontFleet(t, fileFleet, Config{})
	paths := []struct {
		name string
		do   func(method, target, body string) answer
	}{
		{"serve/geodset2", via(fileSrv.Handler())},
		{"serve/published", via(ramSrv.Handler())},
		{"router/fleet", via(rt.Handler())}, // the replicas behind it are on sockets
		{"router/file-fleet", via(fileRt.Handler())},
	}
	for i, srv := range fileFleet.Servers() {
		if r2 := srv.Current().R2; r2.Mapped() != mapped.Mapped() {
			t.Fatalf("file-fleet replica %d: mapped=%v, Open2 of the same file says %v", i, r2.Mapped(), mapped.Mapped())
		}
	}

	// Probes: every record; first and last key of every block ±1 (block
	// boundaries are every oracleBlockSize-th record); below and above
	// Range(); the extremes of the key space.
	lo, hi := mapped.Range()
	if lo != ds.Records[0].Prefix || hi != ds.Records[len(ds.Records)-1].Prefix {
		t.Fatalf("Range() = %s..%s, records span %s..%s", lo, hi, ds.Records[0].Prefix, ds.Records[len(ds.Records)-1].Prefix)
	}
	probes := []ipaddr.Addr{0, 0xFFFFFFFF, (lo - 1).Addr(255), (hi + 1).Addr(0)}
	for i, r := range ds.Records {
		probes = append(probes, r.Prefix.Addr(byte(i)))
		if i%oracleBlockSize == 0 || i%oracleBlockSize == oracleBlockSize-1 || i == len(ds.Records)-1 {
			probes = append(probes, (r.Prefix - 1).Addr(255), r.Prefix.Addr(0), r.Prefix.Addr(255), (r.Prefix + 1).Addr(0))
		}
	}
	absentInBlock := false
	for i := 1; i < oracleBlockSize; i++ {
		if gap := ds.Records[i-1].Prefix + 1; gap < ds.Records[i].Prefix {
			probes = append(probes, gap.Addr(9))
			absentInBlock = true
		}
	}
	if !absentInBlock {
		t.Fatal("fixture has no absent /24 inside its first block")
	}

	render := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	// expect is the oracle's LookupResult for one address.
	hits, misses := 0, 0
	expect := func(a ipaddr.Addr) (serve.LookupResult, int) {
		r, ok := linear(a)
		if !ok {
			misses++
			return serve.LookupResult{IP: a.String(), Error: "no record covers this address"}, http.StatusNotFound
		}
		hits++
		return serve.LookupResult{
			IP: a.String(), Prefix: r.Prefix.String(), Lat: r.Centroid.Lat, Lon: r.Centroid.Lon,
			RadiusKm: r.RadiusKm, Method: r.Method.String(), Sanitized: r.Sanitized,
		}, http.StatusOK
	}
	check := func(what, method, target, body string, want answer) {
		t.Helper()
		for _, p := range paths {
			if got := p.do(method, target, body); got != want {
				t.Errorf("%s %s via %s: got %d %q, want %d %q", method, what, p.name, got.status, got.body, want.status, want.body)
			}
		}
	}

	// Single lookups, and the same addresses in batches with one
	// malformed item riding along in each.
	type batchDoc struct {
		Results []serve.LookupResult `json:"results"`
	}
	var ips []string
	var results []serve.LookupResult
	flush := func() {
		body := render(map[string][]string{"ips": ips})
		check(fmt.Sprintf("/batch of %d", len(ips)), http.MethodPost, "/batch", body, answer{http.StatusOK, render(batchDoc{results})})
		ips, results = ips[:0], results[:0]
	}
	_, parseErr := ipaddr.Parse("10.20.300.1")
	for _, a := range probes {
		wantR, wantOK := linear(a)
		for name, r2 := range readers {
			if got, ok, err := r2.Find(a); err != nil || ok != wantOK || got != wantR {
				t.Errorf("%s Find(%s) = (%+v, %v, %v), linear scan says (%+v, %v)", name, a, got, ok, err, wantR, wantOK)
			}
		}
		res, status := expect(a)
		check("/lookup "+a.String(), http.MethodGet, "/lookup?ip="+a.String(), "", answer{status, render(res)})
		if len(ips) == 0 {
			ips = append(ips, "10.20.300.1")
			results = append(results, serve.LookupResult{IP: "10.20.300.1", Error: parseErr.Error()})
		}
		ips = append(ips, a.String())
		results = append(results, res)
		if len(ips) == oracleMaxBatch {
			flush()
		}
	}
	if len(ips) > 0 {
		flush()
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("probe list is one-sided: %d hits, %d misses", hits, misses)
	}

	// The batch arm: the whole probe list through FindBatch in one call,
	// item for item the linear scan's answer.
	for name, r2 := range readers {
		answers := make([]dataset.Answer, len(probes))
		r2.FindBatch(probes, answers)
		for i, a := range probes {
			wantR, wantOK := linear(a)
			if got := answers[i]; got.Err != nil || got.Found != wantOK || got.Rec != wantR {
				t.Errorf("%s FindBatch item %d (%s) = %+v, linear scan says (%+v, %v)", name, i, a, got, wantR, wantOK)
			}
		}
	}

	// Whole requests: no oracle record to render, so the status is
	// pinned and the body must be the same bytes on every path.
	over := render(map[string][]string{"ips": strings.Fields(strings.Repeat("10.20.0.1 ", oracleMaxBatch+1))})
	for _, c := range []struct {
		method, target, body string
		status               int
	}{
		{http.MethodGet, "/lookup", "", http.StatusBadRequest},
		{http.MethodGet, "/lookup?ip=", "", http.StatusBadRequest},
		{http.MethodGet, "/lookup?ip=10.20.300.1", "", http.StatusBadRequest},
		{http.MethodGet, "/lookup?ip=banana", "", http.StatusBadRequest},
		{http.MethodGet, "/lookup?ip=1.2.3", "", http.StatusBadRequest},
		// Queries url.ParseQuery and serve.QueryIP read differently: the
		// router must validate with the replica's extractor or it answers
		// "missing ip parameter" where the replica names the bad octet.
		{http.MethodGet, "/lookup?ip=10.20.1.7;x=1", "", http.StatusBadRequest},
		{http.MethodGet, "/lookup?ip=10.20.1.7%zz", "", http.StatusBadRequest},
		{http.MethodGet, "/lookup?ip=10.20.1.7;", "", http.StatusBadRequest},
		{http.MethodGet, "/lookup?ip=a&ip=b", "", http.StatusBadRequest},
		{http.MethodGet, "/lookup?%69p=10.20.1.7", "", http.StatusBadRequest},
		{http.MethodGet, "/lookup?ip=10.20.1.7+", "", http.StatusBadRequest},
		{http.MethodGet, "/lookup?ip=&ip=10.20.1.7", "", http.StatusBadRequest},
		{http.MethodPost, "/batch", "", http.StatusBadRequest},
		{http.MethodPost, "/batch", "{not json", http.StatusBadRequest},
		{http.MethodPost, "/batch", `{"ips":[]}`, http.StatusBadRequest},
		{http.MethodPost, "/batch", `{}`, http.StatusBadRequest},
		{http.MethodPost, "/batch", over, http.StatusRequestEntityTooLarge},
		// An item only encoding/json can read, whose echo holds the two
		// control characters a replica and encoding/json escape differently:
		// a router that re-encoded the answer would move these bytes.
		{http.MethodPost, "/batch", `{"ips":["10.20.0.1","a\bb\fc"]}`, http.StatusOK},
		// A body over the byte cap is 413 on both tiers, whether the cap
		// falls inside the document or in what trails a complete one.
		{http.MethodPost, "/batch", `{"ips":["10.20.0.1","` + strings.Repeat("1", serve.MaxBatchBody) + `"]}`, http.StatusRequestEntityTooLarge},
		{http.MethodPost, "/batch", `{"ips":["10.20.0.1"]}` + strings.Repeat("\n", serve.MaxBatchBody), http.StatusRequestEntityTooLarge},
	} {
		want := paths[0].do(c.method, c.target, c.body)
		what := c.target + " " + c.body[:min(len(c.body), 80)] // the over-cap bodies are 4 MiB
		if want.status != c.status {
			t.Errorf("%s %s via %s: status %d, want %d", c.method, what, paths[0].name, want.status, c.status)
		}
		check(what, c.method, c.target, c.body, want)
	}

	// Closing the fleet releases every replica's reader: none may be
	// pinned again, so no mapping outlives the fleet, and a request that
	// still reaches a replica's handler is turned away, not left spinning
	// for a swap that will never come.
	fileFleet.Close()
	for i, srv := range fileFleet.Servers() {
		if srv.Current().R2.TryPin() {
			t.Errorf("file-fleet replica %d: reader still pinnable after fleet.Close", i)
		}
		if got := via(srv.Handler())(http.MethodGet, "/lookup?ip=10.20.0.1", ""); got.status != http.StatusServiceUnavailable {
			t.Errorf("file-fleet replica %d: lookup after fleet.Close = %d, want 503", i, got.status)
		}
	}
}
