// Package ipindex answers "which dataset prefix covers this IP?" at
// serving speed: an immutable longest-prefix-match index over arbitrary
// IPv4 prefixes, sharded by top octet.
//
// The Longitudinal Study of an IP Geolocation Database (arXiv:2107.03988)
// shows public geolocation datasets are consumed as per-prefix lookup
// tables; this package is that consumption path. Build flattens the
// (possibly nested) prefix set into disjoint address intervals, each
// labelled with its deepest covering prefix — prefixes either nest or are
// disjoint, never partially overlap, so the flattening is exact. A lookup
// is then a single binary search in the shard owning the address's top
// octet: O(log n) with no per-query allocation, no lock and no cache (the
// sharding shortens the search; it caches nothing), and the index is never
// mutated after Build, so any number of goroutines may query it
// concurrently.
package ipindex

import (
	"fmt"
	"sort"

	"geoloc/internal/ipaddr"
	"geoloc/internal/telemetry"
)

// Prefix is an IPv4 network: the address bits above Len are significant,
// the rest are zero (Make normalizes).
type Prefix struct {
	Bits ipaddr.Addr
	Len  uint8
}

// Make builds a normalized prefix: host bits below length are cleared.
// Lengths above 32 are clamped to 32.
func Make(a ipaddr.Addr, length uint8) Prefix {
	if length > 32 {
		length = 32
	}
	return Prefix{Bits: a & ipaddr.Addr(mask(length)), Len: length}
}

// From24 converts the hitlist's /24 type.
func From24(p ipaddr.Prefix24) Prefix {
	return Prefix{Bits: p.Addr(0), Len: 24}
}

// mask returns the netmask of a prefix length.
func mask(length uint8) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << (32 - length)
}

// Range returns the first and last address of the prefix (inclusive).
func (p Prefix) Range() (lo, hi uint32) {
	lo = uint32(p.Bits)
	return lo, lo | ^mask(p.Len)
}

// Contains reports whether the address lies inside the prefix.
func (p Prefix) Contains(a ipaddr.Addr) bool {
	return uint32(a)&mask(p.Len) == uint32(p.Bits)
}

// String renders CIDR notation ("10.1.2.0/24").
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Bits, p.Len)
}

// Entry associates a prefix with an opaque value (the dataset uses the
// record index).
type Entry struct {
	Prefix Prefix
	Value  int32
}

// Match is a successful lookup: the longest prefix covering the queried
// address and its value.
type Match struct {
	Prefix Prefix
	Value  int32
}

// meters holds the package's instrumentation (observational only).
var meters = struct {
	lookups *telemetry.Counter
	matches *telemetry.Counter
	noMatch *telemetry.Counter
}{
	lookups: telemetry.Default().Counter("ipindex.lookups"),
	matches: telemetry.Default().Counter("ipindex.matches"),
	noMatch: telemetry.Default().Counter("ipindex.no_match"),
}

// numShards is one shard per top octet.
const numShards = 256

// shard holds the disjoint intervals of one top octet, sorted by start.
// starts/ends/owner are parallel slices (owner indexes Index.entries);
// they are immutable after Build.
type shard struct {
	starts []uint32
	ends   []uint32
	owner  []int32
}

// Index is an immutable longest-prefix-match index. All read paths are
// safe for concurrent use.
type Index struct {
	entries []Entry
	shards  [numShards]shard
	spans   int
}

// Build constructs the index. Entries with identical (normalized)
// prefixes collapse to the first occurrence.
func Build(entries []Entry) *Index {
	ix := &Index{entries: make([]Entry, 0, len(entries))}
	seen := make(map[Prefix]bool, len(entries))
	for _, e := range entries {
		p := Make(e.Prefix.Bits, e.Prefix.Len)
		if seen[p] {
			continue
		}
		seen[p] = true
		ix.entries = append(ix.entries, Entry{Prefix: p, Value: e.Value})
	}

	// Sort by (start asc, length asc): parents come before the children
	// nested inside them, which is what the stack sweep below relies on.
	order := make([]int32, len(ix.entries))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := ix.entries[order[a]].Prefix, ix.entries[order[b]].Prefix
		if pa.Bits != pb.Bits {
			return pa.Bits < pb.Bits
		}
		return pa.Len < pb.Len
	})

	// Sweep: walk prefixes in order, keeping the stack of prefixes that
	// cover the current position. Each emitted interval is owned by the
	// deepest (longest) covering prefix — the stack top.
	type span struct {
		lo, hi uint32
		owner  int32
	}
	// Each of the n entries opens at most one interval and closes at most
	// one more around its end, so 2n+1 bounds the flat span count.
	flat := make([]span, 0, 2*len(ix.entries)+1)
	stack := make([]int32, 0, 32)
	pos := uint64(0)
	hiOf := func(i int32) uint64 {
		_, hi := ix.entries[i].Prefix.Range()
		return uint64(hi)
	}
	emit := func(upTo uint64) { // interval [pos, upTo) belongs to the stack top
		if upTo > pos {
			if len(stack) > 0 {
				flat = append(flat, span{uint32(pos), uint32(upTo - 1), stack[len(stack)-1]})
			}
			pos = upTo
		}
	}
	for _, pi := range order {
		lo, _ := ix.entries[pi].Prefix.Range()
		for len(stack) > 0 && hiOf(stack[len(stack)-1]) < uint64(lo) {
			emit(hiOf(stack[len(stack)-1]) + 1)
			stack = stack[:len(stack)-1]
		}
		emit(uint64(lo))
		stack = append(stack, pi)
	}
	for len(stack) > 0 {
		emit(hiOf(stack[len(stack)-1]) + 1)
		stack = stack[:len(stack)-1]
	}
	ix.spans = len(flat)

	// Clip the flat intervals into top-octet shards. A counting pass
	// pre-sizes each shard's parallel slices exactly, so the append pass
	// never reallocates (the spans-per-shard skew makes growth-doubling
	// waste real memory at internet scale).
	var perShard [numShards]int
	for _, sp := range flat {
		for s := sp.lo >> 24; s <= sp.hi>>24; s++ {
			perShard[s]++
		}
	}
	for s, n := range perShard {
		if n > 0 {
			sh := &ix.shards[s]
			sh.starts = make([]uint32, 0, n)
			sh.ends = make([]uint32, 0, n)
			sh.owner = make([]int32, 0, n)
		}
	}
	for _, sp := range flat {
		for s := sp.lo >> 24; s <= sp.hi>>24; s++ {
			shardLo, shardHi := s<<24, s<<24|0x00FF_FFFF
			sh := &ix.shards[s]
			sh.starts = append(sh.starts, max32(sp.lo, shardLo))
			sh.ends = append(sh.ends, min32(sp.hi, shardHi))
			sh.owner = append(sh.owner, sp.owner)
		}
	}
	return ix
}

func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// Len returns the number of distinct prefixes in the index.
func (ix *Index) Len() int { return len(ix.entries) }

// Spans returns the number of disjoint intervals the prefixes flattened
// into (diagnostic).
func (ix *Index) Spans() int { return ix.spans }

// Entries returns the index's deduplicated, normalized entries.
func (ix *Index) Entries() []Entry { return ix.entries }

// find binary-searches a shard for the interval covering ip; -1 when none.
func (sh *shard) find(ip uint32) int32 {
	// First interval starting after ip; the candidate is the one before.
	i := sort.Search(len(sh.starts), func(i int) bool { return sh.starts[i] > ip })
	if i == 0 || sh.ends[i-1] < ip {
		return -1
	}
	return int32(i - 1)
}

// Lookup returns the longest prefix covering the address: one binary
// search in the shard owning its top octet. Safe for concurrent use.
func (ix *Index) Lookup(a ipaddr.Addr) (Match, bool) {
	meters.lookups.Inc()
	ip := uint32(a)
	sh := &ix.shards[ip>>24]
	iv := sh.find(ip)
	if iv < 0 {
		meters.noMatch.Inc()
		return Match{}, false
	}
	meters.matches.Inc()
	e := ix.entries[sh.owner[iv]]
	return Match{Prefix: e.Prefix, Value: e.Value}, true
}

// LookupUncached is Lookup.
//
// Deprecated: the index has no cache to bypass. Kept for one release
// because benchmark/ names it.
func (ix *Index) LookupUncached(a ipaddr.Addr) (Match, bool) { return ix.Lookup(a) }
