package ipindex

import (
	"fmt"
	"slices"
	"testing"

	"geoloc/internal/ipaddr"
	"geoloc/internal/rhash"
)

// oracle is the linear scan the index must agree with: the position of the
// key equal to the address's /24, or -1.
func oracle(keys []ipaddr.Prefix24, a ipaddr.Addr) int {
	for i, k := range keys {
		if k == ipaddr.Prefix24Of(a) {
			return i
		}
	}
	return -1
}

// agrees reports whether a Lookup answer is the oracle's.
func agrees(i int, ok bool, want int) bool { return ok == (want >= 0) && (!ok || i == want) }

// randomKeys draws n distinct ascending /24 keys, clustered into a few runs
// of neighbours so that both adjacent keys and wide gaps occur, the zero
// /24 and the last one included now and then.
func randomKeys(rs *rhash.Stream, n int) []ipaddr.Prefix24 {
	keys := make([]ipaddr.Prefix24, 0, n)
	for len(keys) < n {
		base := uint32(rs.Uint64()) >> 8
		for run := 1 + rs.Intn(8); run > 0 && len(keys) < n; run-- {
			keys = append(keys, ipaddr.Prefix24(base&0xFF_FFFF))
			base++
		}
	}
	if rs.Bool(0.2) {
		keys = append(keys, 0, 0xFF_FFFF)
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// TestLookupMatchesOracle is the property test: for rhash-seeded random key
// sets and query addresses, the index's answer equals the linear scan's,
// misses included.
func TestLookupMatchesOracle(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 25
	}
	for trial := 0; trial < trials; trial++ {
		rs := rhash.New(0x1D5EED, uint64(trial))
		keys := randomKeys(rs, 1+rs.Intn(64))
		ix := New(keys)

		check := func(a ipaddr.Addr) {
			t.Helper()
			want := oracle(keys, a)
			if got, ok := ix.Lookup(a); !agrees(got, ok, want) {
				t.Fatalf("trial %d: Lookup(%s) = %d,%v; oracle %d", trial, a, got, ok, want)
			}
			if got, ok := ix.LookupUncached(a); !agrees(got, ok, want) {
				t.Fatalf("trial %d: LookupUncached(%s) = %d,%v; oracle %d", trial, a, got, ok, want)
			}
		}

		// The first and last address of every key and one beyond each side:
		// the off-by-one edges a bisection gets wrong.
		for _, k := range keys {
			check(k.Addr(0))
			check(k.Addr(255))
			check(k.Addr(0) - 1)
			check(k.Addr(255) + 1)
		}
		for q := 0; q < 64; q++ {
			check(ipaddr.Addr(uint32(rs.Uint64())))
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	for _, ix := range []*Index{New(nil), New([]ipaddr.Prefix24{})} {
		for _, s := range []string{"0.0.0.0", "10.0.0.1", "255.255.255.255"} {
			if i, ok := ix.Lookup(ipaddr.MustParse(s)); ok {
				t.Fatalf("empty index: Lookup(%s) = %d, %v", s, i, ok)
			}
		}
	}
}

// TestConcurrentLookup hammers one index from many goroutines with
// overlapping keys (the dedicated CI race job runs this package with
// -race).
func TestConcurrentLookup(t *testing.T) {
	rs := rhash.New(0xC0C0)
	keys := randomKeys(rs, 128)
	ix := New(keys)

	// Precompute expected answers on a fixed query set, half of them inside
	// a key so that hits and misses both occur.
	queries := make([]ipaddr.Addr, 512)
	want := make([]int, len(queries))
	for i := range queries {
		if i%2 == 0 {
			queries[i] = keys[rs.Intn(len(keys))].Addr(byte(rs.Intn(256)))
		} else {
			queries[i] = ipaddr.Addr(uint32(rs.Uint64()))
		}
		want[i] = oracle(keys, queries[i])
	}

	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for rep := 0; rep < 200; rep++ {
				for i, q := range queries {
					if got, ok := ix.Lookup(q); !agrees(got, ok, want[i]) {
						done <- fmt.Errorf("concurrent Lookup(%s) = %d,%v; oracle %d", q, got, ok, want[i])
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
