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
package dataset

import (
	"encoding/binary"
	"math/bits"

	"geoloc/internal/ipaddr"
)

// batchLanes is how many searches advance together. Enough to cover the
// memory latency with independent loads and few enough that the lanes'
// state stays in registers and L1; 8, 16 and 32 measure the same, so it is
// a constant.
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
	for len(addrs) > batchLanes {
		d.findLanes(addrs[:batchLanes], out[:batchLanes])
		addrs, out = addrs[batchLanes:], out[batchLanes:]
	}
	d.findLanes(addrs, out)
}

// idleLane is what a lane with nothing left to search probes: one record
// slot, re-read every pass so that the probe loop needs no "is this lane
// live" branch. Its key has more than 24 bits, so it matches no /24.
var idleLane = [recordPayloadLen]byte{0xFF, 0xFF, 0xFF, 0xFF}

// notLess is all ones when a >= b and zero when a < b, without a branch.
func notLess(a, b uint32) int { return int(^((int64(a) - int64(b)) >> 63)) }

// searchBlocks is the level-1 search, for one lane (Lookup) or many: at[l]
// becomes the last block whose first key is <= key[l], found over the
// compact first-key array, or block 0 when every first key is greater — the
// caller's range check turns that into a miss. The artifact must have a
// block.
func (d *Reader2) searchBlocks(key []uint32, at []int) {
	at = at[:len(key)]
	clear(at)
	for span := len(d.first); span > 1; span -= span >> 1 {
		half := span >> 1
		for l, k := range key {
			at[l] += half & notLess(k, d.first[at[l]+half])
		}
	}
}

// findLanes runs up to batchLanes searches in lockstep.
func (d *Reader2) findLanes(addrs []ipaddr.Addr, out []Answer) {
	if len(d.first) == 0 {
		for i := range out {
			out[i] = Answer{}
		}
		return
	}
	var (
		key  [batchLanes]uint32 // the /24 searched for
		pos  [batchLanes]int    // level 1: block index; level 2: record index
		n    [batchLanes]int    // level 2: records still in range
		recs [batchLanes][]byte // level 2: the block's records (idleLane once the lane is answered)
	)
	m := len(addrs)
	for l := 0; l < m; l++ {
		key[l] = uint32(ipaddr.Prefix24Of(addrs[l]))
	}

	d.searchBlocks(key[:m], pos[:m])

	// Range check and first-touch verification per touched block; a lane
	// that is answered here goes idle.
	passes := 0
	for l := 0; l < m; l++ {
		out[l] = Answer{}
		recs[l], n[l] = idleLane[:], 1
		b := &d.blocks[pos[l]]
		if p := ipaddr.Prefix24(key[l]); p < b.first || p > b.last {
			continue
		}
		payload, err := d.blockPayload(pos[l])
		if err != nil {
			out[l].Err = err
			continue
		}
		recs[l], n[l] = payload[2:], int(b.count)
		passes = max(passes, bits.Len32(b.count-1))
	}

	// Level 2: the last record whose key is <= the lane's key, one probe
	// per lane per pass. A lane whose range has shrunk to one record (or
	// that is idle) re-reads that record: half is 0 and nothing moves.
	for l := 0; l < m; l++ {
		pos[l] = 0
	}
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
