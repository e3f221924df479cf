package ipindex

import (
	"testing"

	"geoloc/internal/ipaddr"
	"geoloc/internal/rhash"
	"geoloc/internal/telemetry"
)

// oracle is the naive linear-scan longest-prefix-match the index must
// agree with: walk every entry in insertion order and keep the longest
// prefix containing the address. Strictly-greater comparison encodes the
// index's duplicate rule (first occurrence of an identical prefix wins).
func oracle(entries []Entry, a ipaddr.Addr) (Match, bool) {
	best := Match{}
	found := false
	bestLen := -1
	for _, e := range entries {
		p := Make(e.Prefix.Bits, e.Prefix.Len)
		if p.Contains(a) && int(p.Len) > bestLen {
			best = Match{Prefix: p, Value: e.Value}
			bestLen = int(p.Len)
			found = true
		}
	}
	return best, found
}

// randomEntries draws a prefix set with deliberate nesting: roughly a
// third of the prefixes are children of an earlier prefix, so nested
// longest-match and shadowed-parent cases occur constantly, not rarely.
func randomEntries(rs *rhash.Stream, n int) []Entry {
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		var p Prefix
		if len(entries) > 0 && rs.Bool(0.35) {
			// Child of an earlier prefix: extend its length and set some
			// of the newly significant bits.
			parent := entries[rs.Intn(len(entries))].Prefix
			extra := 1 + rs.Intn(int(32-parent.Len)+1)
			if int(parent.Len)+extra > 32 {
				extra = int(32 - parent.Len)
			}
			if extra == 0 {
				p = parent
			} else {
				childLen := parent.Len + uint8(extra)
				bits := uint32(parent.Bits) | (uint32(rs.Uint64()) &^ mask(parent.Len) & mask(childLen))
				p = Make(ipaddr.Addr(bits), childLen)
			}
		} else {
			length := uint8(rs.Intn(33))
			p = Make(ipaddr.Addr(uint32(rs.Uint64())), length)
		}
		entries = append(entries, Entry{Prefix: p, Value: int32(i)})
	}
	return entries
}

// TestLookupMatchesOracle is the property test: for thousands of
// rhash-seeded random prefix sets and query addresses, the index's
// longest-prefix-match answer must equal the naive oracle — including
// no-match queries and nested prefixes.
func TestLookupMatchesOracle(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 25
	}
	for trial := 0; trial < trials; trial++ {
		rs := rhash.New(0x1D5EED, uint64(trial))
		entries := randomEntries(rs, 1+rs.Intn(64))
		ix := Build(entries)

		check := func(a ipaddr.Addr) {
			t.Helper()
			want, wantOK := oracle(entries, a)
			got, gotOK := ix.Lookup(a)
			if gotOK != wantOK || got != want {
				t.Fatalf("trial %d: Lookup(%s) = %+v,%v; oracle %+v,%v",
					trial, a, got, gotOK, want, wantOK)
			}
		}

		// Boundary addresses of every prefix: first, last, and one beyond
		// each side — the off-by-one edges a binary search gets wrong.
		for _, e := range entries {
			lo, hi := Make(e.Prefix.Bits, e.Prefix.Len).Range()
			check(ipaddr.Addr(lo))
			check(ipaddr.Addr(hi))
			check(ipaddr.Addr(lo - 1))
			check(ipaddr.Addr(hi + 1))
		}
		for q := 0; q < 64; q++ {
			check(ipaddr.Addr(uint32(rs.Uint64())))
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := Build(nil)
	if _, ok := ix.Lookup(ipaddr.MustParse("10.0.0.1")); ok {
		t.Fatal("empty index matched")
	}
	if ix.Len() != 0 || ix.Spans() != 0 {
		t.Fatalf("empty index has Len=%d Spans=%d", ix.Len(), ix.Spans())
	}
}

func TestDefaultRouteCoversEverything(t *testing.T) {
	ix := Build([]Entry{{Prefix: Make(0, 0), Value: 7}})
	for _, s := range []string{"0.0.0.0", "10.1.2.3", "255.255.255.255", "128.0.0.0"} {
		m, ok := ix.Lookup(ipaddr.MustParse(s))
		if !ok || m.Value != 7 || m.Prefix.Len != 0 {
			t.Fatalf("Lookup(%s) = %+v, %v", s, m, ok)
		}
	}
}

func TestNestedLongestWins(t *testing.T) {
	entries := []Entry{
		{Prefix: Make(ipaddr.MustParse("10.0.0.0"), 8), Value: 1},
		{Prefix: Make(ipaddr.MustParse("10.1.0.0"), 16), Value: 2},
		{Prefix: Make(ipaddr.MustParse("10.1.2.0"), 24), Value: 3},
	}
	ix := Build(entries)
	cases := []struct {
		ip   string
		want int32
	}{
		{"10.1.2.9", 3},
		{"10.1.3.9", 2},
		{"10.9.9.9", 1},
		{"10.1.2.255", 3},
		{"10.1.255.255", 2},
	}
	for _, c := range cases {
		m, ok := ix.Lookup(ipaddr.MustParse(c.ip))
		if !ok || m.Value != c.want {
			t.Fatalf("Lookup(%s) = %+v, %v; want value %d", c.ip, m, ok, c.want)
		}
	}
	if _, ok := ix.Lookup(ipaddr.MustParse("11.0.0.0")); ok {
		t.Fatal("address outside every prefix matched")
	}
}

func TestDuplicatePrefixFirstWins(t *testing.T) {
	entries := []Entry{
		{Prefix: Make(ipaddr.MustParse("10.1.2.7"), 24), Value: 5}, // normalizes to 10.1.2.0/24
		{Prefix: Make(ipaddr.MustParse("10.1.2.0"), 24), Value: 9},
	}
	ix := Build(entries)
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after dedupe", ix.Len())
	}
	m, ok := ix.Lookup(ipaddr.MustParse("10.1.2.200"))
	if !ok || m.Value != 5 {
		t.Fatalf("Lookup = %+v, %v; want first entry's value 5", m, ok)
	}
}

func TestShardSpanningPrefix(t *testing.T) {
	// A /7 spans two top-octet shards; both must answer.
	ix := Build([]Entry{{Prefix: Make(ipaddr.MustParse("10.0.0.0"), 7), Value: 3}})
	for _, s := range []string{"10.200.1.1", "11.3.2.1"} {
		if m, ok := ix.Lookup(ipaddr.MustParse(s)); !ok || m.Value != 3 {
			t.Fatalf("Lookup(%s) = %+v, %v", s, m, ok)
		}
	}
	if _, ok := ix.Lookup(ipaddr.MustParse("12.0.0.0")); ok {
		t.Fatal("address beyond the /7 matched")
	}
}

// TestLongPrefixDisablesShardCacheOnly: a prefix longer than /24 splits
// its /24, so the two halves answer differently (the case that used to
// switch the shard's /24-keyed cache off; the name is kept for the test
// ledger), and the neighbouring shard is unaffected.
func TestLongPrefixDisablesShardCacheOnly(t *testing.T) {
	entries := []Entry{
		{Prefix: Make(ipaddr.MustParse("10.1.2.0"), 24), Value: 1},
		{Prefix: Make(ipaddr.MustParse("10.1.2.128"), 25), Value: 2}, // splits the /24
		{Prefix: Make(ipaddr.MustParse("11.5.0.0"), 16), Value: 3},
	}
	ix := Build(entries)
	for _, c := range []struct {
		ip   string
		want int32
	}{{"10.1.2.5", 1}, {"10.1.2.127", 1}, {"10.1.2.128", 2}, {"10.1.2.200", 2}, {"11.5.9.9", 3}} {
		if m, ok := ix.Lookup(ipaddr.MustParse(c.ip)); !ok || m.Value != c.want {
			t.Fatalf("Lookup(%s) = %+v, %v; want value %d", c.ip, m, ok, c.want)
		}
	}
}

// TestLookupCounters: with the registry on, every lookup lands in exactly
// one of ipindex.matches / ipindex.no_match.
func TestLookupCounters(t *testing.T) {
	reg := telemetry.Default()
	was := reg.IsEnabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(was)
	l0, m0, n0 := meters.lookups.Value(), meters.matches.Value(), meters.noMatch.Value()

	ix := Build([]Entry{{Prefix: Make(ipaddr.MustParse("10.1.2.0"), 24), Value: 1}})
	hits, misses := int64(0), int64(0)
	rs := rhash.New(0xC0FFEE)
	for q := 0; q < 500; q++ {
		a := ipaddr.MustParse("10.1.2.0") + ipaddr.Addr(rs.Intn(1024)) // 1 in 4 inside the /24
		if _, ok := ix.Lookup(a); ok {
			hits++
		} else {
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("stream is not mixed: %d hits, %d misses", hits, misses)
	}
	lookups, matches, noMatch := meters.lookups.Value()-l0, meters.matches.Value()-m0, meters.noMatch.Value()-n0
	if matches != hits || noMatch != misses || lookups != matches+noMatch {
		t.Fatalf("lookups=%d matches=%d no_match=%d; the stream had %d hits and %d misses",
			lookups, matches, noMatch, hits, misses)
	}
}

// TestConcurrentLookup hammers one index from many goroutines with
// overlapping keys (the dedicated CI race job runs this package with
// -race).
func TestConcurrentLookup(t *testing.T) {
	rs := rhash.New(0xC0C0)
	entries := randomEntries(rs, 128)
	ix := Build(entries)

	// Precompute expected answers on a fixed query set.
	queries := make([]ipaddr.Addr, 512)
	want := make([]Match, len(queries))
	wantOK := make([]bool, len(queries))
	for i := range queries {
		queries[i] = ipaddr.Addr(uint32(rs.Uint64()))
		want[i], wantOK[i] = oracle(entries, queries[i])
	}

	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for rep := 0; rep < 200; rep++ {
				for i, q := range queries {
					m, ok := ix.Lookup(q)
					if ok != wantOK[i] || m != want[i] {
						done <- errAt(q, m, ok)
						return
					}
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type lookupErr struct {
	q  ipaddr.Addr
	m  Match
	ok bool
}

func errAt(q ipaddr.Addr, m Match, ok bool) error { return &lookupErr{q, m, ok} }

func (e *lookupErr) Error() string {
	return "concurrent lookup diverged at " + e.q.String()
}
