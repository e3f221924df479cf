package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"geoloc/internal/ipaddr"
)

// fuzzMaxBatch is small so that short bodies reach the limit and pass it.
const fuzzMaxBatch = 6

// referenceBatch answers a /batch body the way the handler did before it
// had a scanner or FindBatch: encoding/json's streaming decoder over the
// body, then one Find and one rendered result per item. It is the oracle
// FuzzBatchBody and the concurrency test hold the handler to. Results are
// rendered by the appenders the handler has always used, so that "same
// bytes as before" is what is tested; how those compare with encoding/json
// is the subject of TestLookupGoldenEquivalence and
// TestAppendLookupResultMatchesEncodingJSON. A rejected item's error text is
// fmtParseError's, so the handler's message is held to fmt's wording too.
func referenceBatch(srv *Server, body []byte) (int, string) {
	fail := func(status int, msg string) (int, string) {
		b, _ := json.Marshal(errorBody{msg})
		return status, string(b) + "\n"
	}
	var in batchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&in); err != nil {
		return fail(http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
	}
	if len(in.IPs) == 0 {
		return fail(http.StatusBadRequest, "empty batch")
	}
	if len(in.IPs) > srv.cfg.MaxBatch {
		return fail(http.StatusRequestEntityTooLarge, fmt.Sprintf("batch of %d exceeds limit %d", len(in.IPs), srv.cfg.MaxBatch))
	}
	art := srv.Current()
	b := []byte(`{"results":[`)
	for i, raw := range in.IPs {
		if i > 0 {
			b = append(b, ',')
		}
		a, err := ipaddr.Parse(raw)
		if err != nil {
			b = appendErrorResult(b, raw, fmtParseError(raw))
			continue
		}
		r, ok, err := art.R2.Find(a)
		switch {
		case err != nil:
			b = appendLookupResult(b, a, r, resolveReadFail)
		case !ok:
			b = appendLookupResult(b, a, r, resolveMiss)
		default:
			b = appendLookupResult(b, a, r, resolveOK)
		}
	}
	return http.StatusOK, string(b) + "]}\n"
}

// fmtParseError is the text of ipaddr.Parse's error for a rejected s as
// fmt.Errorf spelled it, reading s a whole part at a time: the first part
// missing its dot (or a fourth followed by one), else the first bad octet.
func fmtParseError(s string) string {
	rest := s
	for i := 0; i < 4; i++ {
		part := rest
		dot := strings.IndexByte(rest, '.')
		if (i < 3) == (dot < 0) {
			return fmt.Sprintf("ipaddr: %q is not dotted quad", s)
		}
		if i < 3 {
			part, rest = rest[:dot], rest[dot+1:]
		}
		if v, err := strconv.Atoi(part); err != nil || v < 0 || v > 255 || strconv.Itoa(v) != part {
			return fmt.Sprintf("ipaddr: bad octet %q in %q", part, s)
		}
	}
	return ""
}

// TestBatchRejectedItemBytes holds the handler's answer for rejected items
// to referenceBatch, fmt's wording included: batches of FuzzParse-style
// near misses and of a grammar sweep — every octet 0–299 spelled with 0–1
// leading zeros, the empty part and a few strangers, in every position of
// texts of 3 to 5 parts. The FuzzBatchBody seeds run as FuzzBatchBody.
func TestBatchRejectedItemBytes(t *testing.T) {
	srv := newPublished(Config{})
	h := srv.Handler()
	check := func(items []string) {
		t.Helper()
		body := ipsBody(items...)
		wantStatus, want := referenceBatch(srv, body)
		if status, got := postBatch(h, body); status != wantStatus || got != want {
			t.Fatalf("batch %q:\n got  %d %q\n want %d %q", items, status, got, wantStatus, want)
		}
	}
	check([]string{"", "1.2.3", "1.2.3.4.5", "1.2.3.4.", ".1.2.3.4", "256.1.1.1", "1.2.3.1000", "a.b.c.d",
		"01.2.3.4", "00.0.0.0", "-1.2.3.4", "+1.2.3.4", "1..2.3", " 1.2.3.4", "1.2.3.4 ", "1.2.3.4%eth0",
		"0x1.2.3.4", "::", "::1", "::ffff:1.2.3.4", "1.2.3.4:80", "[::1]", `a"b`, `1.2.3.\4`, "<b>&amp;</b>"})
	var octets []string
	for v := 0; v < 300; v++ {
		octets = append(octets, strconv.Itoa(v), "0"+strconv.Itoa(v))
	}
	octets = append(octets, "", "x", "-1", "1a")
	var items []string
	for parts := 3; parts <= 5; parts++ {
		for pos := 0; pos < parts; pos++ {
			for _, o := range octets {
				p := make([]string, parts)
				for i := range p {
					p[i] = "7"
				}
				p[pos] = o
				items = append(items, strings.Join(p, "."))
				if len(items) == 256 {
					check(items)
					items = items[:0]
				}
			}
		}
	}
	check(items)
}

// postBatch drives the whole handler chain without a socket.
func postBatch(h http.Handler, body []byte) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// ipsBody is the canonical body for a list of items.
func ipsBody(items ...string) []byte {
	b, _ := json.Marshal(batchRequest{IPs: items})
	return b
}

// batchBodySeeds are the bodies where a hand scanner and encoding/json can
// part ways, plus the sizes around the batch limit.
func batchBodySeeds() [][]byte {
	n := func(k int) []byte {
		items := make([]string, k)
		for i := range items {
			items[i] = fmt.Sprintf("10.0.%d.7", i)
		}
		return ipsBody(items...)
	}
	return [][]byte{
		n(0), n(1), n(2), n(fuzzMaxBatch), n(fuzzMaxBatch + 1),
		[]byte(``), []byte(`{}`), []byte(`[]`), []byte(`null`), []byte(`"10.0.0.7"`),
		[]byte(`{"ips":null}`), []byte(`{"ips":[null]}`), []byte(`{"ips":"10.0.0.7"}`),
		// Keys: duplicates (the last wins), case folding, escapes, strangers.
		[]byte(`{"ips":["10.0.0.7"],"ips":["10.0.5.1","192.0.2.1"]}`),
		[]byte(`{"IPS":["10.0.0.7"]}`), []byte(`{"Ips":["10.0.0.7"],"ips":["10.0.5.1"]}`),
		[]byte(`{"\u0069ps":["10.0.0.7"]}`), []byte(`{"ips":["10.0.0.7"],"x":1}`),
		[]byte(`{"x":{"ips":[1]},"ips":["10.0.0.7"]}`), []byte(`{"ipş":["10.0.0.7"]}`),
		// Strings the scanner must hand over: escapes, non-ASCII, invalid
		// UTF-8, control bytes; and ones it may keep: HTML characters, DEL.
		[]byte(`{"ips":["10.0.0.\u0037"]}`), []byte(`{"ips":["10.0.0.7\n"]}`), []byte(`{"ips":["10\/0","0.0.\b"]}`),
		[]byte(`{"ips":["١٠.0.0.7"]}`), []byte("{\"ips\":[\"10.0.0.\xff\"]}"), []byte("{\"ips\":[\"10.0.0.7\t\"]}"),
		[]byte(`{"ips":["<b>&amp;</b>"]}`), []byte("{\"ips\":[\"10.0.0.7\x7f\"]}"), []byte(`{"ips":["\ud800"]}`),
		[]byte(`{"ips":[""]}`), []byte(`{"ips":["10.0.0.7",""]}`), []byte(`{"ips":["a\"b"]}`),
		// Values that are not strings.
		[]byte(`{"ips":[["10.0.0.7"]]}`), []byte(`{"ips":[{"a":1}]}`), []byte(`{"ips":[1,2]}`),
		[]byte(`{"ips":["10.0.0.7",null,"10.0.5.1"]}`), []byte(`{"ips":[true]}`),
		// After the first value: the streaming decoder never looks.
		[]byte(`{"ips":["10.0.0.7"]}garbage`), []byte(`{"ips":["10.0.0.7"]}{"ips":[]}`),
		[]byte(`{"ips":["10.0.0.7"]} ` + "\n"), []byte(`{"ips":[]}x`),
		// Whitespace everywhere it may go, and where it may not.
		[]byte(" \t\r\n{ \"ips\" \n:\t[ \"10.0.0.7\" , \"10.0.5.1\"\r\n] } "),
		[]byte("{\"ips\":[\"10.0.0.7\"\v]}"), []byte("\ufeff" + `{"ips":["10.0.0.7"]}`),
		// Commas.
		[]byte(`{"ips":["10.0.0.7",]}`), []byte(`{"ips":[,"10.0.0.7"]}`), []byte(`{"ips":["10.0.0.7"],}`),
		[]byte(`{"ips":["10.0.0.7" "10.0.5.1"]}`),
		// Truncated.
		[]byte(`{"ips":["10.0.0.7","10.0`), []byte(`{"ips":["10.0.0.7"`), []byte(`{"ips":["10.0.0.7"]`), []byte(`{"ips"`),
		// Items that are not addresses, mixed in.
		[]byte(`{"ips":["10.0.0.7","not-an-ip","192.0.2.1","10.0.0.300","10.0.0.7"]}`),
	}
}

// FuzzBatchBody: for arbitrary bytes as a /batch body, the handler — strict
// scanner, encoding/json behind it, one FindBatch — returns the status and
// the exact bytes of referenceBatch.
//
// Run locally with:
//
//	go test -fuzz FuzzBatchBody -fuzztime 30s ./internal/serve
func FuzzBatchBody(f *testing.F) {
	for _, s := range batchBodySeeds() {
		f.Add(s)
	}
	srv := newPublished(Config{MaxBatch: fuzzMaxBatch})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		wantStatus, wantBody := referenceBatch(srv, body)
		if status, got := postBatch(h, body); status != wantStatus || got != wantBody {
			t.Fatalf("body %q:\n got  %d %q\n want %d %q", body, status, got, wantStatus, wantBody)
		}
	})
}

// TestScanBatchBody pins which side of the scanner a body falls on. The
// fuzz target proves both sides answer the same; this proves the fast side
// is the one taken for what the repo's producers emit, that whatever it
// takes it splits as encoding/json would, and that the shapes
// encoding/json reads differently from their bytes are all handed over.
func TestScanBatchBody(t *testing.T) {
	items := func(body []byte, spans []span) []string {
		out := make([]string, len(spans))
		for i, sp := range spans {
			out[i] = string(body[sp.lo:sp.hi])
		}
		return out
	}
	for _, seed := range batchBodySeeds() {
		spans, ok := scanBatchBody(seed, nil, fuzzMaxBatch)
		if !ok {
			continue
		}
		var in batchRequest
		if err := json.NewDecoder(bytes.NewReader(seed)).Decode(&in); err != nil {
			t.Errorf("scanBatchBody accepted %q, encoding/json refuses it: %v", seed, err)
		} else if got := items(seed, spans); !slices.Equal(got, in.IPs) {
			t.Errorf("scanBatchBody(%q) = %q, encoding/json reads %q", seed, got, in.IPs)
		}
	}
	for _, body := range []string{
		`{"ips":[]}`, `{"ips":["10.0.0.7"]}`, `{"ips":["10.0.0.7","banana",""]}`,
		string(ipsBody(strings.Fields(strings.Repeat("10.0.0.7 ", fuzzMaxBatch))...)),
		" \t\r\n{ \"ips\" \n:\t[ \"10.0.0.7\" , \"10.0.5.1\"\r\n] } ",
	} {
		if _, ok := scanBatchBody([]byte(body), nil, fuzzMaxBatch); !ok {
			t.Errorf("scanBatchBody(%q) fell back; it is the shape the scanner exists for", body)
		}
	}
	for _, body := range []string{
		``, `{}`, `{"ips":null}`, `{"IPS":["10.0.0.7"]}`, `{"ips":["10.0.0.7"],"ips":["10.0.5.1"]}`,
		`{"ips":["10.0.0.7"],"x":1}`, `{"\u0069ps":["10.0.0.7"]}`, `{"ips":["10.0.0.\u0037"]}`,
		`{"ips":["١٠.0.0.7"]}`, "{\"ips\":[\"10.0.0.\xff\"]}", "{\"ips\":[\"10.0.0.7\t\"]}", `{"ips":[["10.0.0.7"]]}`,
		`{"ips":[null]}`, `{"ips":["10.0.0.7"]}garbage`, `{"ips":["10.0.0.7",]}`, `{"ips":["10.0.0.7"`,
		string(ipsBody(strings.Fields(strings.Repeat("10.0.0.7 ", fuzzMaxBatch+1))...)),
	} {
		if _, ok := scanBatchBody([]byte(body), nil, fuzzMaxBatch); ok {
			t.Errorf("scanBatchBody(%q) accepted; that body is encoding/json's to read", body)
		}
	}
}

// TestBatchConcurrentMixedSizes: many goroutines post batches of every
// size from 1 to the limit at once, through both the scanner and the
// encoding/json fallback, each holding its answer to the reference. Under
// -race this is the proof that a request's pooled scratch is its own from
// Get to Put; a scratch shared or returned early shows as a wrong body
// here even without the detector.
func TestBatchConcurrentMixedSizes(t *testing.T) {
	ds := tinyDataset()
	for _, sc := range []struct {
		name string
		srv  *Server
	}{
		{"in-ram", newPublished(Config{MaxBatch: 64})},
		{"mapped", writeMappedServer(t, Config{MaxBatch: 64})},
	} {
		t.Run(sc.name, func(t *testing.T) {
			h := sc.srv.Handler()
			const workers, rounds = 8, 40
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						size := 1 + (g*rounds+r*7)%64
						items := make([]string, size)
						for i := range items {
							rec := ds.Records[(g+r+i*3)%len(ds.Records)]
							switch (g + i) % 5 {
							case 0:
								items[i] = (rec.Prefix + 1000).Addr(byte(i)).String() // a miss
							case 1:
								items[i] = fmt.Sprintf("10.0.%d.%d", i, 256+g) // not an address
							default:
								items[i] = rec.Prefix.Addr(byte(g * r)).String()
							}
						}
						body := ipsBody(items...)
						if r%4 == 3 {
							// An escaped digit sends the body to encoding/json.
							body = bytes.Replace(body, []byte("10."), []byte(`1\u0030.`), 1)
						}
						wantStatus, wantBody := referenceBatch(sc.srv, body)
						if status, got := postBatch(h, body); status != wantStatus || got != wantBody {
							t.Errorf("worker %d round %d (%d items):\n got  %d %q\n want %d %q", g, r, size, status, got, wantStatus, wantBody)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
