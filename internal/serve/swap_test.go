package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/faults"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

// tinyVariantDataset is the tiny campaign compiled WITHOUT unsanitized
// records — a genuinely different artifact (fewer records) from the same
// campaign, which is exactly what rotating a re-released dataset looks
// like.
var (
	variantOnce sync.Once
	variantDS   *dataset.Dataset
)

func tinyVariantDataset() *dataset.Dataset {
	variantOnce.Do(func() {
		c := core.NewCampaign(world.TinyConfig())
		variantDS = dataset.Compile(c, dataset.Options{})
	})
	return variantDS
}

// TestSwapGenerationAndRollback pins the swap contract: Publish bumps
// the generation, a Reload of a bad artifact keeps the old one serving
// (rollback by non-publish) and counts a swap failure.
func TestSwapGenerationAndRollback(t *testing.T) {
	reg := telemetry.New()
	sw := NewSwapper(reg)
	if sw.Current() != nil || sw.Generation() != 0 {
		t.Fatal("fresh swapper should have no artifact, generation 0")
	}
	a1, _ := sw.Publish(tinyDataset(), "v1")
	if a1.Gen != 1 || sw.Generation() != 1 {
		t.Fatalf("first publish generation = %d, want 1", a1.Gen)
	}
	a2, _ := sw.Publish(tinyVariantDataset(), "v2")
	if a2.Gen != 2 || sw.Current() != a2 {
		t.Fatalf("second publish generation = %d, want 2 and current", a2.Gen)
	}

	dir := t.TempDir()
	// A corrupt file: valid magic, garbage after.
	bad := filepath.Join(dir, "bad.geodset")
	if err := os.WriteFile(bad, []byte(dataset.Magic2+"garbage-not-frames"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Reload(bad); err == nil {
		t.Fatal("reload of corrupt artifact succeeded")
	}
	if _, err := sw.Reload(filepath.Join(dir, "missing.geodset")); err == nil {
		t.Fatal("reload of missing file succeeded")
	}
	if sw.Current() != a2 || sw.Generation() != 2 {
		t.Fatal("failed reload must leave the old artifact serving")
	}
	if got := reg.Counter("geoserve.swap_failures").Value(); got != 2 {
		t.Errorf("swap_failures = %d, want 2", got)
	}
	if got := reg.Counter("geoserve.swaps").Value(); got != 2 {
		t.Errorf("swaps = %d, want 2", got)
	}

	// A good file swaps in and bumps past the failures.
	good := filepath.Join(dir, "good.geodset")
	if err := tinyDataset().Write(good); err != nil {
		t.Fatal(err)
	}
	a3, err := sw.Reload(good)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Gen != 3 || a3.Source != good {
		t.Fatalf("reload generation = %d source = %q, want 3 %q", a3.Gen, a3.Source, good)
	}
}

// TestPublishRejectsInvalidDataset: an in-process dataset no reader would
// accept is refused at Publish with the reader's named error — counted as
// a swap failure, the old generation still serving — never stored to fail
// (or mislead) requests later.
func TestPublishRejectsInvalidDataset(t *testing.T) {
	good := func(p ipaddr.Prefix24) dataset.Record {
		return dataset.Record{Prefix: p, Centroid: geo.Point{Lat: 10, Lon: 20}, RadiusKm: 5, Method: dataset.MethodCBG, Sanitized: true}
	}
	with := func(r dataset.Record, edit func(*dataset.Record)) dataset.Record {
		edit(&r)
		return r
	}
	cases := []struct {
		name string
		recs []dataset.Record
	}{
		{"unsorted", []dataset.Record{good(10), good(30), good(20)}},
		{"unsorted across blocks", append(manyRecords(dataset.DefaultBlockSize, 1000), good(5))},
		{"duplicate prefix", []dataset.Record{good(10), good(10), good(20)}},
		{"prefix over 24 bits", []dataset.Record{good(10), good(1 << 24)}},
		{"latitude out of range", []dataset.Record{good(10), with(good(20), func(r *dataset.Record) { r.Centroid.Lat = 95 }), good(30)}},
		{"NaN radius", []dataset.Record{with(good(10), func(r *dataset.Record) { r.RadiusKm = math.NaN() })}},
		{"negative radius", []dataset.Record{good(10), with(good(20), func(r *dataset.Record) { r.RadiusKm = -1 })}},
		{"unknown method", []dataset.Record{good(10), with(good(20), func(r *dataset.Record) { r.Method = 99 })}},
	}
	reg := telemetry.New()
	srv := New(Config{}, reg)
	old, err := srv.Publish(tinyDataset(), "good")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		art, err := srv.Publish(&dataset.Dataset{Hdr: tinyDataset().Hdr, Records: c.recs}, c.name)
		if art != nil || !errors.Is(err, dataset.ErrCorrupt) {
			t.Errorf("%s: Publish = (%v, %v), want (nil, ErrCorrupt)", c.name, art, err)
		}
		if srv.Current() != old {
			t.Fatalf("%s: rejected publish replaced the serving artifact", c.name)
		}
		if got := reg.Counter("geoserve.swap_failures").Value(); got != int64(i+1) {
			t.Errorf("%s: swap_failures = %d, want %d", c.name, got, i+1)
		}
	}
	rec := httptest.NewRecorder()
	hit := tinyDataset().Records[0].Prefix.Addr(3).String()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/lookup?ip="+hit, nil))
	if rec.Code != http.StatusOK {
		t.Errorf("lookup after the rejected publishes = %d, want 200", rec.Code)
	}
	if got := reg.Counter("geoserve.swaps").Value(); got != 1 {
		t.Errorf("swaps = %d, want 1", got)
	}
}

// manyRecords fabricates n sound records in ascending order from base.
func manyRecords(n int, base ipaddr.Prefix24) []dataset.Record {
	recs := make([]dataset.Record, n)
	for i := range recs {
		recs[i] = dataset.Record{Prefix: base + ipaddr.Prefix24(i), Centroid: geo.Point{Lat: 1, Lon: 2}, Method: dataset.MethodCBG, Sanitized: true}
	}
	return recs
}

// TestAdminReload drives the guarded HTTP reload path: auth required,
// constant-time token check, reload from an explicit path, reload in
// place, and 422 + rollback on a rejected artifact.
func TestAdminReload(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.geodset")
	v2 := filepath.Join(dir, "v2.geodset")
	bad := filepath.Join(dir, "bad.geodset")
	if err := tinyDataset().Write(v1); err != nil {
		t.Fatal(err)
	}
	if err := tinyVariantDataset().Write(v2); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("not a dataset"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := New(Config{AdminToken: "s3cret"}, telemetry.New())
	srv.Publish(tinyDataset(), v1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reload := func(token, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/admin/reload", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("X-Admin-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	if status, _ := reload("", ""); status != http.StatusForbidden {
		t.Fatalf("no token: status = %d, want 403", status)
	}
	if status, _ := reload("wrong", ""); status != http.StatusForbidden {
		t.Fatalf("bad token: status = %d, want 403", status)
	}
	if status, _ := get(t, ts.URL+"/admin/reload"); status != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: status = %d, want 405", status)
	}

	// Explicit path swap to the variant artifact.
	status, body := reload("s3cret", fmt.Sprintf(`{"path":%q}`, v2))
	if status != http.StatusOK || !strings.Contains(body, `"generation":2`) {
		t.Fatalf("reload v2 = %d %s, want 200 generation 2", status, body)
	}
	if got := srv.Current().Records; got != len(tinyVariantDataset().Records) {
		t.Errorf("serving %d records after swap, want %d", got, len(tinyVariantDataset().Records))
	}

	// Reload in place (empty body) re-reads the active source.
	status, body = reload("s3cret", "")
	if status != http.StatusOK || !strings.Contains(body, `"generation":3`) {
		t.Fatalf("reload in place = %d %s, want 200 generation 3", status, body)
	}

	// A rejected artifact answers 422 and the old one keeps serving.
	status, body = reload("s3cret", fmt.Sprintf(`{"path":%q}`, bad))
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("reload bad = %d %s, want 422", status, body)
	}
	if srv.Current().Gen != 3 {
		t.Errorf("generation after rejected reload = %d, want 3", srv.Current().Gen)
	}
	if status, _ := get(t, ts.URL+"/lookup?ip=10.0.0.7"); status != http.StatusOK {
		t.Errorf("lookup after rejected reload = %d, want 200", status)
	}

	// With no token configured the endpoint is disabled outright.
	off := newPublished(Config{})
	rec := httptest.NewRecorder()
	off.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusForbidden {
		t.Errorf("reload with admin disabled = %d, want 403", rec.Code)
	}
}

// TestConcurrentTrafficDuringSwaps is the hot-swap race test (run under
// -race in CI): sustained /lookup and /batch traffic while the artifact
// is republished dozens of times, both in-process and through the
// guarded HTTP reload. Every response must be a designed status — a 5xx
// or a torn read would mean a request observed a half-swapped pair.
func TestConcurrentTrafficDuringSwaps(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.geodset")
	v2 := filepath.Join(dir, "v2.geodset")
	if err := tinyDataset().Write(v1); err != nil {
		t.Fatal(err)
	}
	if err := tinyVariantDataset().Write(v2); err != nil {
		t.Fatal(err)
	}

	srv := New(Config{AdminToken: "tok"}, telemetry.New())
	srv.Publish(tinyDataset(), v1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const (
		workers       = 8
		perWorker     = 150
		directSwaps   = 25
		httpSwaps     = 15
		expectSwapGen = 1 + directSwaps + httpSwaps
	)
	var bad atomic.Int64
	var wg sync.WaitGroup

	// Swapper 1: direct in-process publishes alternating artifacts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < directSwaps; i++ {
			if i%2 == 0 {
				srv.Publish(tinyVariantDataset(), "mem:v2")
			} else {
				srv.Publish(tinyDataset(), "mem:v1")
			}
		}
	}()

	// Swapper 2: HTTP reloads through the admin endpoint.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < httpSwaps; i++ {
			path := v1
			if i%2 == 0 {
				path = v2
			}
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/admin/reload",
				strings.NewReader(fmt.Sprintf(`{"path":%q}`, path)))
			req.Header.Set("X-Admin-Token", "tok")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				bad.Add(1)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				bad.Add(1)
			}
			resp.Body.Close()
		}
	}()

	// Traffic: lookups (hit, miss, garbage) and batches, continuously.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < perWorker; i++ {
				switch i % 3 {
				case 0:
					resp, err := client.Get(ts.URL + fmt.Sprintf("/lookup?ip=10.0.%d.%d", i%8, (w*31+i)%256))
					if err != nil || (resp.StatusCode != 200 && resp.StatusCode != 404) {
						bad.Add(1)
					}
					if err == nil {
						resp.Body.Close()
					}
				case 1:
					resp, err := client.Post(ts.URL+"/batch", "application/json",
						strings.NewReader(fmt.Sprintf(`{"ips":["10.0.0.%d","192.0.2.1","10.0.5.%d"]}`, i%256, i%256)))
					if err != nil || resp.StatusCode != 200 {
						bad.Add(1)
					}
					if err == nil {
						resp.Body.Close()
					}
				case 2:
					resp, err := client.Get(ts.URL + "/version")
					if err != nil || resp.StatusCode != 200 {
						bad.Add(1)
					}
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if n := bad.Load(); n != 0 {
		t.Fatalf("%d requests failed during hot-swaps", n)
	}
	if gen := srv.Current().Gen; gen != expectSwapGen {
		t.Errorf("final generation = %d, want %d", gen, expectSwapGen)
	}
}

// writeV2File serializes a dataset through Writer2 into dir.
func writeV2File(t *testing.T, ds *dataset.Dataset, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	w, err := dataset.NewWriter2(path, ds.Hdr, 8)
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
	return path
}

// writeTornFile writes ds as writeV2File does, 8 records a block, and
// damages the first block: every lookup that lands in it fails its
// first-touch check.
func writeTornFile(t *testing.T, ds *dataset.Dataset) string {
	t.Helper()
	path := writeV2File(t, ds, t.TempDir(), "torn.geodset2")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a centroid byte of record 0 in the first block, which starts
	// after the magic and the header frame (kind u8 | plen u32 | crc u32).
	const frameOverhead = 9
	blockOff := len(dataset.Magic2) + frameOverhead + int(binary.LittleEndian.Uint32(img[len(dataset.Magic2)+1:]))
	img[blockOff+frameOverhead+2+8] ^= 0x40
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBatchCountersMatchItems: batches that mix hits, misses, addresses
// that do not parse, injected faults and a damaged block move
// geoserve.hits, misses, read_failures and bad_input by exactly their
// items' outcomes — counted once per request, from concurrent requests,
// through the scanner and the encoding/json fallback alike.
func TestBatchCountersMatchItems(t *testing.T) {
	ds := tinyDataset()
	reg := telemetry.New()
	srv := New(Config{Prof: &faults.Profile{Name: "some-fail", ServeFailProb: 0.3}}, reg)
	art, err := srv.Reload(writeTornFile(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	var items []string
	for i := 0; i < 24; i++ {
		items = append(items, ds.Records[i].Prefix.Addr(byte(i)).String()) // block 0 is torn
	}
	items = append(items, "203.0.113.9", "198.51.100.1", "banana", "10.0.0.300", "")

	// The oracle: the profile's draw, then the reader itself.
	var want tally
	injected := 0
	for _, raw := range items {
		a, err := ipaddr.Parse(raw)
		switch {
		case err != nil:
			want.bad++
		case srv.cfg.Prof.ServeFailed(art.Hdr.Seed, uint64(a)):
			injected++
		default:
			_, ok, err := art.R2.Find(a)
			want.classify(ok, err)
		}
	}
	if want.hits == 0 || want.misses == 0 || want.readFails == 0 || want.bad == 0 || injected == 0 {
		t.Fatalf("the batch lacks an outcome: %+v, %d injected", want, injected)
	}

	body := ipsBody(items...)
	escaped := bytes.Replace(body, []byte("banana"), []byte(`b\u0061nana`), 1) // encoding/json's side
	const workers, rounds = 4, 25
	h := srv.Handler()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b := body
				if (g+r)%2 == 1 {
					b = escaped
				}
				if status, _ := postBatch(h, b); status != http.StatusOK {
					t.Errorf("worker %d round %d: status %d", g, r, status)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	const n = workers * rounds
	for _, c := range []struct {
		name string
		want int64
	}{
		{"geoserve.hits", n * want.hits}, {"geoserve.misses", n * want.misses},
		{"geoserve.read_failures", n * want.readFails}, {"geoserve.bad_input", n * want.bad},
		{"geoserve.injected_failures", int64(n * injected)},
	} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d after %d batches, want %d", c.name, got, n, c.want)
		}
	}
}

// TestReadFailureAnswers503: a lookup the artifact cannot answer — a
// block that fails its first-touch check, a reader whose image is already
// released — is a counted 503 read failure (clients retry), never a 404
// and never a panic.
func TestReadFailureAnswers503(t *testing.T) {
	ds := tinyDataset()
	hit := ds.Records[0].Prefix.Addr(3)
	path := writeTornFile(t, ds)
	reg := telemetry.New()
	srv := New(Config{}, reg)
	art, err := srv.Reload(path)
	if err != nil {
		t.Fatalf("open rejected lazily-validated damage: %v", err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/lookup?ip="+hit.String(), nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "artifact read failed") {
		t.Fatalf("lookup into torn block: %d %q, want 503 read failure", rec.Code, rec.Body.String())
	}

	// In a batch the torn block fails the items that land in it, and only
	// those: writeV2File frames 8 records a block.
	far := ds.Records[8].Prefix.Addr(3)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch",
		strings.NewReader(fmt.Sprintf(`{"ips":[%q,%q]}`, hit, far))))
	if body := rec.Body.String(); rec.Code != http.StatusOK ||
		!strings.Contains(body, fmt.Sprintf(`{"ip":%q,"error":"artifact read failed"}`, hit)) ||
		!strings.Contains(body, fmt.Sprintf(`{"ip":%q,"prefix":%q`, far, ds.Records[8].Prefix)) {
		t.Fatalf("batch across a torn and a sound block: %d %q", rec.Code, body)
	}

	// A request always pins the reader it resolves against, so only a
	// caller that skips the pin can meet a released one.
	art.R2.Close()
	if _, kind := srv.resolveRec(nil, httptest.NewRequest(http.MethodGet, "/lookup", nil), art, hit); kind != resolveReadFail {
		t.Fatalf("resolve against a closed reader: kind %d, want read failure", kind)
	}
	if got := reg.Counter("geoserve.read_failures").Value(); got != 3 {
		t.Fatalf("geoserve.read_failures = %d, want 3", got)
	}
}

// TestMmapHotSwapUnderLoad hammers /lookup while mapped GEODSET2
// artifacts hot-swap underneath: every swap closes the retired mapping
// as soon as its last pinned request drains (generation-pinned munmap),
// so under -race this proves in-flight lookups never touch a mapping
// after it is released and never see a mixed generation. Answers must
// stay 200/404 throughout — a 5xx means a request caught a dead reader.
func TestMmapHotSwapUnderLoad(t *testing.T) {
	dir := t.TempDir()
	pathA := writeV2File(t, tinyDataset(), dir, "a.geodset2")
	pathB := writeV2File(t, tinyVariantDataset(), dir, "b.geodset2")

	srv := New(Config{}, telemetry.New())
	if _, err := srv.Reload(pathA); err != nil {
		t.Fatal(err)
	}
	if r2 := srv.Current().R2; r2 == nil || !r2.Mapped() {
		t.Skip("mmap unavailable; nothing to race")
	}

	hit := tinyDataset().Records[0].Prefix.Addr(3).String()
	targets := []string{"/lookup?ip=" + hit, "/lookup?ip=203.0.113.9"}

	var stop atomic.Bool
	var failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				req := httptest.NewRequest(http.MethodGet, targets[g%len(targets)], nil)
				rec := httptest.NewRecorder()
				srv.handleLookup(rec, req)
				if c := rec.Code; c != http.StatusOK && c != http.StatusNotFound {
					failures.Add(1)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 60; i++ {
		path := pathA
		if i%2 == 1 {
			path = pathB
		}
		if _, err := srv.Reload(path); err != nil {
			t.Errorf("swap %d: %v", i, err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed during mapped hot-swaps", n)
	}
}
