package serve

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/netip"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"geoloc/internal/dataset"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
)

// FuzzQueryIP: the /lookup query reader never panics, and on a query with
// nothing to unescape it returns the text after "ip=" in the first
// &-segment that starts with "ip=" ("" when none does). A query that does
// carry '%' or '+' reads that same segment, decoded when it decodes.
func FuzzQueryIP(f *testing.F) {
	for _, q := range []string{
		"", "ip=64.0.0.7", "x=1&ip=64.0.0.7&ip=9.9.9.9", "ip=", "ip", "ipx=1&ip=1.2.3.4",
		"ip=1.2.3.4;x=1", "&&ip=%31.2.3.4", "ip=a+b", "ip=%zz&ip=1.1.1.1", "x=ip=1.2.3.4",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		got := QueryIP(q)
		want := ""
		for _, seg := range strings.Split(q, "&") {
			if v, ok := strings.CutPrefix(seg, "ip="); ok {
				want = v
				break
			}
		}
		if strings.ContainsAny(want, "%+") {
			if dec, err := url.QueryUnescape(want); err == nil {
				want = dec
			}
		}
		if got != want {
			t.Fatalf("QueryIP(%q) = %q, want %q", q, got, want)
		}
	})
}

// floatEdges are the float64s where a %f/%e renderer can part ways with
// encoding/json: both zeros, the subnormal range, the window's edges and
// their neighbours, and the largest finite value.
var floatEdges = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, math.Nextafter(0x1p-1022, 0), 0x1p-1022,
	math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1),
	math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)),
	math.MaxFloat64,
}

// randFloat draws a finite float64: a window edge, a raw bit pattern, or a
// value shaped like what the data plane serves — a coordinate to four
// decimals, a radius to one.
func randFloat(r *rand.Rand) float64 {
	var f float64
	switch r.IntN(4) {
	case 0:
		f = floatEdges[r.IntN(len(floatEdges))]
	case 1:
		for f = math.Inf(1); math.IsInf(f, 0) || math.IsNaN(f); {
			f = math.Float64frombits(r.Uint64())
		}
	case 2:
		f = float64(r.Int64N(3_600_001)-1_800_000) / 1e4
	default:
		f = float64(1+r.Int64N(99_999)) / 10
	}
	if r.IntN(2) == 0 {
		f = -f
	}
	return f
}

// randText draws a string of bytes the escaper treats differently: every
// control byte, the HTML trio, quote and backslash, multi-byte runes, the
// line separators, and invalid UTF-8.
func randText(r *rand.Rand, minLen int) string {
	pieces := []string{"a", "7", ".", " ", `"`, `\`, "<", ">", "&", "\u2028", "\u2029", "é", "☃", "\xff", "\xe2\x80"}
	var b strings.Builder
	for n := minLen + r.IntN(12); b.Len() < n; {
		if r.IntN(3) == 0 {
			b.WriteByte(byte(r.IntN(0x80)))
		} else {
			b.WriteString(pieces[r.IntN(len(pieces))])
		}
	}
	return b.String()
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAppendLookupResultMatchesEncodingJSON holds the hand renderer to
// encoding/json, byte for byte, on seeded random records: raw float64 bit
// patterns and the window edges for lat, lon and radius, every Method value
// and both Sanitized values, every non-OK outcome; and the error shape over
// random raw input. The reference spells addresses with net/netip, so the
// octet table is checked too.
func TestAppendLookupResultMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(37, 1))
	for i := 0; i < 100_000; i++ {
		a := ipaddr.Addr(r.Uint32())
		rec := dataset.Record{
			Prefix:    ipaddr.Prefix24(r.Uint32() >> 8),
			Centroid:  geo.Point{Lat: randFloat(r), Lon: randFloat(r)},
			RadiusKm:  randFloat(r),
			Method:    dataset.Method(i),
			Sanitized: i/256%2 == 0,
		}
		a0, a1, a2, a3 := a.Octets()
		ip := netip.AddrFrom4([4]byte{a0, a1, a2, a3})
		p0, p1, p2, _ := rec.Prefix.Addr(0).Octets()
		want := marshal(t, LookupResult{
			IP:        ip.String(),
			Prefix:    netip.PrefixFrom(netip.AddrFrom4([4]byte{p0, p1, p2, 0}), 24).String(),
			Lat:       rec.Centroid.Lat,
			Lon:       rec.Centroid.Lon,
			RadiusKm:  rec.RadiusKm,
			Method:    rec.Method.String(),
			Sanitized: rec.Sanitized,
		})
		if got := string(appendLookupResult(nil, a, rec, resolveOK)); got != want {
			t.Fatalf("appendLookupResult(%v, %+v) =\n %s\nencoding/json says\n %s", a, rec, got, want)
		}
		kind := []resolveKind{resolveMiss, resolveInjected, resolveReadFail}[i%3]
		want = marshal(t, LookupResult{IP: ip.String(), Error: kind.message()})
		if got := string(appendLookupResult(nil, a, rec, kind)); got != want {
			t.Fatalf("appendLookupResult(%v, kind %d) = %s, encoding/json says %s", a, kind, got, want)
		}
		raw, msg := randText(r, 0), randText(r, 1)
		want = marshal(t, LookupResult{IP: raw, Error: msg})
		if got := string(appendErrorResult(nil, raw, msg)); got != want {
			t.Fatalf("appendErrorResult(%q, %q) = %s, encoding/json says %s", raw, msg, got, want)
		}
	}
}

// FuzzAppendJSONFloat: for any 64 bits that decode to a finite float64,
// appendJSONFloat writes what json.Marshal writes.
//
// Run locally with:
//
//	go test -fuzz FuzzAppendJSONFloat -fuzztime 30s ./internal/serve
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range append(floatEdges, 48.8588, -122.031, 6378.137, 0.1, 1e20, 123456789012345680) {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		v := math.Float64frombits(u)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return // encoding/json refuses them
		}
		if got, want := string(appendJSONFloat(nil, v)), marshal(t, v); got != want {
			t.Fatalf("appendJSONFloat(%v) (bits %#x) = %s, encoding/json says %s", v, u, got, want)
		}
	})
}

// BenchmarkAppendJSONFloat times the %f-window kernel against the strconv
// call it replaced, on coordinates to four decimals, radii to one decimal,
// and values whose shortest form needs all 17 digits.
func BenchmarkAppendJSONFloat(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	inputs := []struct {
		name string
		draw func() float64
	}{
		{"latlon", func() float64 { return float64(r.Int64N(3_600_001)-1_800_000) / 1e4 }},
		{"radius", func() float64 { return float64(1+r.Int64N(99_999)) / 10 }},
		{"17digit", func() float64 {
			for {
				v := r.Float64()*360 - 180
				if strings.IndexByte(strconv.FormatFloat(math.Abs(v), 'e', -1, 64), 'e') == 18 {
					return v // d.dddddddddddddddde±XX: 17 digits
				}
			}
		}},
	}
	for _, in := range inputs {
		vals := make([]float64, 1024)
		for i := range vals {
			vals[i] = in.draw()
		}
		buf := make([]byte, 0, 64)
		b.Run(in.name+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = appendJSONFloat(buf[:0], vals[i%len(vals)])
			}
		})
		b.Run(in.name+"/strconv", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = strconv.AppendFloat(buf[:0], vals[i%len(vals)], 'f', -1, 64)
			}
		})
	}
}

// BenchmarkAppendLookupResult renders a /batch response's worth of hits:
// 256 records shaped like a served artifact's.
func BenchmarkAppendLookupResult(b *testing.B) {
	r := rand.New(rand.NewPCG(2, 2))
	addrs := make([]ipaddr.Addr, 256)
	recs := make([]dataset.Record, len(addrs))
	for i := range recs {
		addrs[i] = ipaddr.Addr(r.Uint32())
		recs[i] = dataset.Record{
			Prefix:    ipaddr.Prefix24Of(addrs[i]),
			Centroid:  geo.Point{Lat: float64(r.Int64N(1_700_001)-850_000) / 1e4, Lon: float64(r.Int64N(3_500_001)-1_750_000) / 1e4},
			RadiusKm:  float64(1+r.Int64N(9_999)) / 10,
			Method:    dataset.MethodCBG,
			Sanitized: true,
		}
	}
	buf := make([]byte, 0, 64<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for j, rec := range recs {
			buf = appendLookupResult(buf, addrs[j], rec, resolveOK)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}
