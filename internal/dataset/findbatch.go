// The bulk read path (DESIGN.md §3.10): FindBatch answers many addresses
// against one Reader2 by advancing their binary searches in lockstep.
//
// One lookup over an artifact larger than the cache is a chain of dependent
// misses — every probe's address comes out of the compare before it — so a
// loop over Find pays them one after another. A batch's searches are
// independent of each other: stepping a group of them together, one probe
// per lane per pass, lets the out-of-order core keep that many misses in
// flight. That only works if a probe's outcome steers no branch — a
// mispredicted compare flushes the other lanes' loads with it — so both
// levels use the fixed-trip-count form of binary search (the trip count
// depends on the array length alone) and fold the compare into arithmetic.
//
// Neither level bisects its whole array. Keys are usually close to evenly
// spaced — every compiled artifact is a dense run of /24s — so a straight
// line through an array's first and last key guesses a key's index, and
// the array's window says how far that guess can be off: the search runs
// over a few entries around the guess. Lookup searches the same windows
// for one key (find), bisecting the block's window with a branch.
package dataset

import (
	"encoding/binary"
	"math/bits"

	"geoloc/internal/ipaddr"
)

// batchLanes is how many searches advance together. Enough to cover the
// memory latency with independent loads and few enough that the lanes'
// state stays in registers and L1. With the windowed search,
// BenchmarkFindBatch's uniform image read 124–140 ns at 8 lanes, 104–129
// at 16 and 135–136 at 32 (clustered: 204–258, 175–238, 179–242), so it
// stays 16.
const batchLanes = 16

// Answer is what Find returns for one address, as a value: the record when
// Found, the named error when the block the address lands in is damaged (or
// the reader is closed), neither for a miss.
type Answer struct {
	Rec   Record
	Found bool
	Err   error
}

// FindBatch stores Find(addrs[i]) in out[i] for every i; out must be at
// least as long as addrs. Every check Find makes is made here — a closed
// reader answers ErrClosed, a block is verified on first touch, the
// matching record is validated as it is decoded — and a damaged block fails
// exactly the items that land in it. No allocation, no lock.
func (d *Reader2) FindBatch(addrs []ipaddr.Addr, out []Answer) {
	out = out[:len(addrs)]
	if d.refs.Load() <= 0 {
		for i := range out {
			out[i] = Answer{Err: ErrClosed}
		}
		return
	}
	var key [batchLanes]uint32
	for len(addrs) > 0 {
		m := min(len(addrs), batchLanes)
		for l := range m {
			key[l] = uint32(ipaddr.Prefix24Of(addrs[l]))
		}
		d.findLanes(key, out[:m])
		addrs, out = addrs[m:], out[m:]
	}
}

// idleLane is what a lane with nothing left to search probes: one record
// slot, re-read every pass so that the probe loop needs no "is this lane
// live" branch. Its key has more than 24 bits, so it matches no /24.
var idleLane = [recordPayloadLen]byte{0xFF, 0xFF, 0xFF, 0xFF}

// notLess is all ones when a >= b and zero when a < b, without a branch.
func notLess(a, b uint32) int { return int(^((int64(a) - int64(b)) >> 63)) }

// guess is where the straight line through (first, 0) and (last, n-1)
// puts key in an ascending array of n keys from first to last. For a key
// in [first, last] it lies in [0, n-1], it never decreases as key grows,
// and it is exact on a dense or fixed-stride array.
func guess(key, first, last uint32, n int) int {
	return int(uint64(key-first) * uint64(n-1) / uint64(max(last-first, 1)))
}

// window returns the entries [lo, lo+w) of an array of n ascending keys
// that hold the last one <= a key whose guess is g, where below and above
// are the most guess overshoots and undershoots any key's own index in the
// array. Let j be that index. guess never decreases, so g >= guess(k[j])
// >= j-above; and where k[j+1] exists, key < k[j+1] gives g <=
// guess(k[j+1]) <= j+1+below. So j lies in [g-below-1, g+above]. The
// window is that range moved inside the array: every window over one
// array is equally long, and never longer than the array.
func window(g, below, above, n int) (lo, w int) {
	w = min(below+above+2, n)
	return min(max(g-below-1, 0), n-w), w
}

// packWindow is a verified block's state word: below+1 over above, never
// zero. Both are less than maxBlockRecords.
func packWindow(below, above int) uint32 { return uint32(below+1)<<16 | uint32(above) }

// window is the records of block b that hold the last one <= key, for a
// key in [b.first, b.last] and b's state word st.
func (b *blockMeta) window(key, st uint32) (lo, w int) {
	n := int(b.count)
	return window(guess(key, uint32(b.first), uint32(b.last), n), int(st>>16)-1, int(st&0xFFFF), n)
}

// searchBlocks is the level-1 search for findLanes' lanes: at[l]
// becomes the last block whose first key is <= key[l], found inside the
// level-1 window over the compact first-key array, or block 0 when every
// first key is greater — the caller's range check turns that into a miss.
// A key outside the first keys' range is guessed at their nearer end. The
// artifact must have a block.
func (d *Reader2) searchBlocks(key []uint32, at []int) {
	at = at[:len(key)]
	nb := len(d.first)
	lo, hi := d.first[0], d.first[nb-1]
	span := 0
	for l, k := range key {
		at[l], span = window(guess(min(max(k, lo), hi), lo, hi, nb), d.firstBelow, d.firstAbove, nb)
	}
	for ; span > 1; span -= span >> 1 {
		half := span >> 1
		for l, k := range key {
			at[l] += half & notLess(k, d.first[at[l]+half])
		}
	}
}

// findLanes answers the first len(out) keys in lockstep, out[l] for key[l].
// A key is a /24 prefix of at most 24 bits.
func (d *Reader2) findLanes(key [batchLanes]uint32, out []Answer) {
	if len(d.first) == 0 {
		for i := range out {
			out[i] = Answer{}
		}
		return
	}
	var (
		pos  [batchLanes]int    // level 1: block index; level 2: record index
		n    [batchLanes]int    // level 2: records still in range
		recs [batchLanes][]byte // level 2: the block's records (idleLane once the lane is answered)
	)
	m := len(out)
	d.searchBlocks(key[:m], pos[:m])

	// Range check, first-touch verification and the block's window per
	// touched block; a lane that is answered here goes idle.
	passes := 0
	for l := 0; l < m; l++ {
		out[l] = Answer{}
		i := pos[l]
		b := &d.blocks[i]
		recs[l], pos[l], n[l] = idleLane[:], 0, 1
		if p := ipaddr.Prefix24(key[l]); p < b.first || p > b.last {
			continue
		}
		payload, st, err := d.blockPayload(i)
		if err != nil {
			out[l].Err = err
			continue
		}
		recs[l] = payload[2:]
		pos[l], n[l] = b.window(key[l], st)
		passes = max(passes, bits.Len(uint(n[l]-1)))
	}

	// Level 2: the last record of the window whose key is <= the lane's
	// key, one probe per lane per pass. A lane whose range has shrunk to
	// one record (or that is idle) re-reads that record: half is 0 and
	// nothing moves.
	for ; passes > 0; passes-- {
		for l := 0; l < m; l++ {
			half := n[l] >> 1
			probe := binary.LittleEndian.Uint32(recs[l][(pos[l]+half)*recordPayloadLen:])
			pos[l] += half & notLess(key[l], probe)
			n[l] -= half
		}
	}

	for l := 0; l < m; l++ {
		rp := recs[l][pos[l]*recordPayloadLen:][:recordPayloadLen]
		if binary.LittleEndian.Uint32(rp) != key[l] {
			continue
		}
		out[l].Rec, out[l].Err = decodeRecord(rp)
		out[l].Found = out[l].Err == nil
	}
}

// find is findLanes for one key, on scalars: searchBlocks' level-1
// search, written out (through searchBlocks' one-lane slices it read 5–10 %
// slower), then the block window bisected with a branch. A lone search has
// no other lanes for a mispredicted compare to flush, and the predictor
// lets the core load ahead down the likelier half, where the
// fixed-trip-count form waits on every probe. In alternating runs on a
// 2-vCPU host BenchmarkFind read 207–314 ns uniform and 546–761 clustered
// against 364–440 and 898–1121 for the one-lane findLanes; the branch-free
// scalar bisection read 234–317 and 813–855 against findLanes' 343–369
// and 861–948.
func (d *Reader2) find(key uint32) Answer {
	nb := len(d.first)
	if nb == 0 {
		return Answer{}
	}
	first, last := d.first[0], d.first[nb-1]
	at, span := window(guess(min(max(key, first), last), first, last, nb), d.firstBelow, d.firstAbove, nb)
	for ; span > 1; span -= span >> 1 {
		half := span >> 1
		at += half & notLess(key, d.first[at+half])
	}
	b := &d.blocks[at]
	if p := ipaddr.Prefix24(key); p < b.first || p > b.last {
		return Answer{}
	}
	payload, st, err := d.blockPayload(at)
	if err != nil {
		return Answer{Err: err}
	}
	recs := payload[2:]
	lo, w := b.window(key, st)
	hi := lo + w
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if binary.LittleEndian.Uint32(recs[mid*recordPayloadLen:]) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= int(b.count) {
		return Answer{}
	}
	rp := recs[lo*recordPayloadLen:][:recordPayloadLen]
	if binary.LittleEndian.Uint32(rp) != key {
		return Answer{}
	}
	rec, err := decodeRecord(rp)
	return Answer{Rec: rec, Found: err == nil, Err: err}
}
