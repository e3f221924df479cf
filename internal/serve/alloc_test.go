package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"geoloc/internal/ipaddr"
	"geoloc/internal/obs"
	"geoloc/internal/telemetry"
)

// discardWriter is an http.ResponseWriter that costs nothing: headers
// are pre-allocated and the body is dropped, so AllocsPerRun measures
// the handler, not the recorder.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// writeMappedServer publishes the tiny dataset as a mapped GEODSET2
// artifact on a fresh server.
func writeMappedServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := New(cfg, telemetry.New())
	if _, err := srv.Reload(writeV2File(t, tinyDataset(), t.TempDir(), "tiny.geodset2")); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestServeAllocs is the hot-path allocation gate (DESIGN.md §3.10): a
// steady-state /lookup — artifact pin, query parse, resolve, JSON
// render, write — performs zero heap allocations per request, for both
// backings of the one reader — the heap image of a published dataset
// ("in-ram") and the mapped file — on hits and misses alike, and the
// middleware chain around it stays at or under a pinned count, for a
// lookup and for a whole 256-address batch. CI runs
// this test by name (make allocs-smoke), so an allocation regressing into
// the hot path fails the build, not just a benchmark trend.
func TestServeAllocs(t *testing.T) {
	ds := tinyDataset()
	hitIP := ds.Records[0].Prefix.Addr(7).String()
	const missIP = "203.0.113.9"

	servers := []struct {
		name string
		srv  *Server
	}{
		{"in-ram", newPublished(Config{})},
		{"mapped", writeMappedServer(t, Config{})},
	}
	lookups := []struct{ name, ip string }{{"hit", hitIP}, {"miss", missIP}}
	for _, sc := range servers {
		for _, tc := range lookups {
			t.Run(sc.name+"/"+tc.name, func(t *testing.T) {
				req := httptest.NewRequest(http.MethodGet, "/lookup?ip="+tc.ip, nil)
				w := &discardWriter{h: make(http.Header)}
				sc.srv.handleLookup(w, req) // prime: first-touch verify, pool
				if n := testing.AllocsPerRun(200, func() {
					sc.srv.handleLookup(w, req)
				}); n != 0 {
					t.Errorf("steady-state /lookup (%s %s) allocates %.1f per request, want 0",
						sc.name, tc.name, n)
				}
			})
		}
	}

	// The whole chain around that core, as a connection drives it: observe
	// (request ID, the writer that carries the request record, ledger,
	// latency histogram), the mux, the deadline and the admission slot. A
	// request that never waits builds no deadline context, so a generated
	// ID costs the writer, the ID string and its header slice, and an
	// adopted ID — the router forwards one on every hop — the writer alone:
	// its header slice is echoed from the request.
	// It may not regrow unnoticed: the pins are what the code reaches
	// today, and a later performance change lowers them.
	const chainAllocs, adoptedChainAllocs = 3, 1
	for _, sc := range servers {
		for _, tc := range lookups {
			for _, id := range []struct {
				name string
				hdr  string
				max  float64
			}{{"", "", chainAllocs}, {"-adopted", "client-7", adoptedChainAllocs}} {
				t.Run(sc.name+"/chain-"+tc.name+id.name, func(t *testing.T) {
					h := sc.srv.Handler()
					req := httptest.NewRequest(http.MethodGet, "/lookup?ip="+tc.ip, nil)
					if id.hdr != "" {
						req.Header.Set(obs.RequestIDHeader, id.hdr)
					}
					w := &discardWriter{h: make(http.Header)}
					h.ServeHTTP(w, req) // prime: ledger slot, pool
					if n := testing.AllocsPerRun(200, func() {
						h.ServeHTTP(w, req)
					}); n > id.max {
						t.Errorf("steady-state Handler() /lookup (%s %s%s) allocates %.1f per request, want at most %v",
							sc.name, tc.name, id.name, n, id.max)
					}
				})
			}
		}
	}

	// A 256-address POST /batch through the same chain: the body is read
	// into pooled scratch, scanned and parsed in place, resolved by one
	// FindBatch and rendered into a pooled buffer, so what is left is the
	// chain's own cost plus the body reader's — nothing per address.
	const batchChainAllocs = 6
	ips := make([]string, 256)
	for i := range ips {
		ips[i] = ds.Records[i%len(ds.Records)].Prefix.Addr(byte(i)).String()
		if i%10 == 9 {
			ips[i] = ipaddr.FromOctets(203, 0, 113, byte(i)).String() // a miss
		}
	}
	payload := ipsBody(ips...)
	for _, sc := range servers {
		t.Run(sc.name+"/chain-batch", func(t *testing.T) {
			if raceEnabled {
				t.Skip("sync.Pool drops Puts under the race detector; a dropped scratch is rebuilt from the heap")
			}
			h := sc.srv.Handler()
			body := &rewindBody{}
			req := httptest.NewRequest(http.MethodPost, "/batch", nil)
			req.Body = body
			w := &discardWriter{h: make(http.Header)}
			serve := func() {
				body.Reset(payload)
				h.ServeHTTP(w, req)
			}
			serve() // prime: first-touch verify, pools grown to this batch
			if got, want := sc.srv.hits.Value()+sc.srv.misses.Value(), int64(len(ips)); got < want {
				t.Fatalf("priming batch resolved %d addresses, want %d", got, want)
			}
			if n := testing.AllocsPerRun(200, serve); n > batchChainAllocs {
				t.Errorf("steady-state Handler() /batch of %d (%s) allocates %.1f per request, want at most %d",
					len(ips), sc.name, n, batchChainAllocs)
			}
		})
	}
}

// TestBadBatchAllocs pins a 256-item POST /batch of addresses that do not
// parse, through Handler(): each item's error text is written straight
// into the response from the item's bytes, so the batch costs what a batch
// of good addresses costs, plus no more than a few objects — nothing per
// item. make allocs-smoke runs it by name.
func TestBadBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; a dropped scratch is rebuilt from the heap")
	}
	const badBatchAllocs = 6
	shapes := []string{"bad", "1.2.3", "1.2.3.4.5", "256.1.1.1", "01.2.3.4", "", "1..2.3", "10.0.0.x", "1.2.3.4:80", "a.b.c.d"}
	ips := make([]string, 256)
	for i := range ips {
		ips[i] = shapes[i%len(shapes)]
	}
	payload := ipsBody(ips...)
	srv := newPublished(Config{})
	h := srv.Handler()
	body := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, "/batch", nil)
	req.Body = body
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		body.Reset(payload)
		h.ServeHTTP(w, req)
	}
	serve() // prime: pools grown to this batch
	if n := testing.AllocsPerRun(200, serve); n > badBatchAllocs {
		t.Errorf("steady-state Handler() /batch of %d bad addresses allocates %.1f per request, want at most %d",
			len(ips), n, badBatchAllocs)
	}
}

// rewindBody is a request body a test can replay without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestLookupGoldenEquivalence cross-checks the hand renderer against
// encoding/json on awkward inputs: the golden tests pin the common
// shapes, this pins the escaping corners (HTML characters, control
// bytes, invalid UTF-8) the hand renderer must handle identically.
// TestAppendLookupResultMatchesEncodingJSON draws random records and
// strings; FuzzAppendJSONFloat covers every finite float64.
func TestLookupGoldenEquivalence(t *testing.T) {
	for _, s := range []string{
		"plain", `quote"back\slash`, "tab\tnl\nret\r", "html<&>", "ctl\x01\x1f",
		"utf8 é  ", "bad\xffutf8", "", "a\bb", "a\fb",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(appendJSONString(nil, s)); got != string(want) {
			t.Errorf("appendJSONString(%q) = %s, encoding/json says %s", s, got, want)
		}
	}
	for _, f := range []float64{0, 1, -1.5, 48.858844, -122.031, 1e-7, 3e21, 6378.137, 0.25} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(appendJSONFloat(nil, f)); got != string(want) {
			t.Errorf("appendJSONFloat(%v) = %s, encoding/json says %s", f, got, want)
		}
	}
}
