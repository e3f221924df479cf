package main

import (
	"geoloc/internal/dataset"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
)

// rng is a splitmix64 stream: the harness's only source of randomness, so a
// seed fixes every input bit-for-bit and the program under test never sees
// the seed itself.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// synthPart is a run of records at a fixed /24 stride; the stride-1 prefixes
// after each record are holes, so a guaranteed miss sits next to every hit.
type synthPart struct {
	base   uint32 // first record's /24 (address >> 8)
	n      int
	stride uint32
}

// synth is a synthetic dataset defined arithmetically: record i's prefix and
// values are functions of (seed, i), so the oracle for any address is O(1)
// and no copy of a multi-million-record dataset is kept.
type synth struct {
	seed  uint64
	parts []synthPart
	n     int
}

func newSynth(seed uint64, parts ...synthPart) *synth {
	s := &synth{seed: seed, parts: parts}
	for _, p := range parts {
		s.n += p.n
	}
	return s
}

func (s *synth) prefix(i int) ipaddr.Prefix24 {
	for _, p := range s.parts {
		if i < p.n {
			return ipaddr.Prefix24(p.base + uint32(i)*p.stride)
		}
		i -= p.n
	}
	panic("synth: record index out of range")
}

// record returns record i. Coordinates are multiples of 1e-4 degrees and the
// radius of 0.1 km, so their JSON renderings are short and exact.
func (s *synth) record(i int) dataset.Record {
	h := mix64(s.seed ^ uint64(i+1)*0xA24BAED4963EE407)
	r := dataset.Record{
		Prefix: s.prefix(i),
		Centroid: geo.Point{
			Lat: float64(int64(h%1700000)-850000) / 10000,
			Lon: float64(int64((h>>21)%3500000)-1750000) / 10000,
		},
		RadiusKm:  float64(1+(h>>43)%9999) / 10,
		Method:    dataset.MethodCBG,
		Sanitized: true,
	}
	if (h>>60)&3 == 0 {
		r.Method = dataset.MethodShortestPing
	}
	return r
}

// find is the oracle: the index of the record covering a, if any.
func (s *synth) find(a ipaddr.Addr) (int, bool) {
	p := uint32(a) >> 8
	off := 0
	for _, part := range s.parts {
		if p >= part.base {
			if d := p - part.base; d%part.stride == 0 && int(d/part.stride) < part.n {
				return off + int(d/part.stride), true
			}
		}
		off += part.n
	}
	return 0, false
}

// hitAddr is a random host inside record i; missAddr a random host in the
// hole right after it.
func (s *synth) hitAddr(i int, r *rng) ipaddr.Addr {
	return s.prefix(i).Addr(byte(r.next()))
}

func (s *synth) missAddr(i int, r *rng) ipaddr.Addr {
	stride := 0
	j := i
	for _, p := range s.parts {
		if j < p.n {
			stride = int(p.stride)
			break
		}
		j -= p.n
	}
	return ipaddr.Prefix24(uint32(s.prefix(i)) + 1 + uint32(r.intn(stride-1))).Addr(byte(r.next()))
}

// opClass is what one generated address is meant to be.
type opClass uint8

const (
	classHot     opClass = iota // hit inside the hot set
	classUniform                // hit on a uniformly drawn record
	classMiss                   // address no record covers
)

// mixPattern fills out with exactly hot classHot, uniform classUniform and
// the rest classMiss, in seeded random order. Shares are exact per call, so
// every round and every batch carries the same mix whatever the seed.
func mixPattern(r *rng, out []opClass, hot, uniform int) {
	for i := range out {
		switch {
		case i < hot:
			out[i] = classHot
		case i < hot+uniform:
			out[i] = classUniform
		default:
			out[i] = classMiss
		}
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

// lookupOp is one generated address and what the oracle says about it.
type lookupOp struct {
	addr ipaddr.Addr
	rec  int32 // covering record, -1 for a miss
}

// genOps draws one address per class entry. hotSet lists the record indices
// of the hot set (unused when classes holds no classHot).
func (s *synth) genOps(r *rng, classes []opClass, hotSet []int32, out []lookupOp) {
	for i, c := range classes {
		switch c {
		case classHot:
			rec := hotSet[r.intn(len(hotSet))]
			out[i] = lookupOp{s.hitAddr(int(rec), r), rec}
		case classUniform:
			rec := r.intn(s.n)
			out[i] = lookupOp{s.hitAddr(rec, r), int32(rec)}
		default:
			out[i] = lookupOp{s.missAddr(r.intn(s.n), r), -1}
		}
	}
}
