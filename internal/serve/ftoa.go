// Shortest round-trip float64 rendering for the serving hot path
// (DESIGN.md §3.10). encoding/json renders a float64 with
// strconv.AppendFloat(f, 'f', -1, 64) when 1e-6 <= |f| < 1e21; every
// coordinate and radius the data plane answers with lies in that window,
// and strconv's general-purpose shortest search was the largest single
// cost of a /batch response. appendShortestF finds the same digits with
// Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
// following the OpenJDK reference implementation of the paper, and writes
// them in %f form. Its output is byte-identical to strconv's on that window
// (TestAppendLookupResultMatchesEncodingJSON, FuzzAppendJSONFloat); values
// outside it never reach it.
package serve

import (
	"math"
	"math/big"
	"math/bits"
)

// The decimal exponents k = flog10pow2(q) that the %f window reaches: q is
// the binary exponent of the significand's unit, -72 for 1e-6 and 17 just
// below 1e21.
const (
	ftoaMinK = -22
	ftoaMaxK = 5
)

const mask63 = 1<<63 - 1

// ftoaG[k-ftoaMinK] is g = floor(10^-k · 2^-r) + 1 split as g1·2^63 + g0,
// {g1, g0}, with r the one integer for which 2^125 <= 10^-k · 2^-r < 2^126
// (the paper's §9.8.3). It is built exactly, once, with math/big.
var ftoaG = func() (t [ftoaMaxK - ftoaMinK + 1][2]uint64) {
	for i := range t {
		p := -(i + ftoaMinK) // g scales 10^p, p = -k
		shift := 125 - flog2pow10(p)
		g := new(big.Int).Lsh(big.NewInt(1), uint(shift))
		if p >= 0 {
			g.Mul(g, new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(p)), nil))
		} else {
			g.Quo(g, new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(-p)), nil))
		}
		g.Add(g, big.NewInt(1))
		t[i] = [2]uint64{new(big.Int).Rsh(g, 63).Uint64(), g.Uint64() & mask63}
	}
	return
}()

// flog2pow10 is floor(e · log2 10), flog10pow2 floor(e · log10 2) and
// flog10ThreeQuartersPow2 floor(log10(3/4 · 2^e)), exact far beyond the
// exponents used here.
func flog2pow10(e int) int { return e * 1_741_647 >> 19 }
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }
func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

// rop is the paper's round-to-odd product: floor(g · cp / 2^127) with its
// lowest bit set when any discarded bit is.
func rop(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	return (y1 + z>>63) | (z&mask63+mask63)>>63
}

// appendShortestF appends the shortest decimal that reads back as f — the
// one nearest f when several are that short, the even one on a tie — in %f
// form, exactly as strconv.AppendFloat(dst, f, 'f', -1, 64) does. f must
// be positive and in [1e-6, 1e21).
func appendShortestF(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	q := int(b>>52) - 1075
	c := b&(1<<52-1) | 1<<52
	// v = c·2^q; its rounding interval is [vl, vr] for an even c, open for
	// an odd one. cb, cbl and cbr are 4v, 4vl and 4vr over 2^q.
	out := c & 1
	cb := c << 2
	cbl, k := cb-2, flog10pow2(q)
	if c == 1<<52 {
		// A power of two: the float below is half as far as the one above.
		cbl, k = cb-1, flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &ftoaG[k-ftoaMinK]
	// vb, vbl, vbr: 4v, 4vl, 4vr over 10^k, rounded to odd.
	vb := rop(g, cb<<h)
	vbl := rop(g, cbl<<h)
	vbr := rop(g, (cb+2)<<h)

	// At most one multiple of 10^(k+1) lies in the interval; if one does,
	// it is the shortest.
	s := vb >> 2
	sp10 := s / 10 * 10
	if upin, wpin := vbl+out <= sp10<<2, (sp10+10)<<2+out <= vbr; upin != wpin {
		if wpin {
			sp10 += 10
		}
		return appendDecimalF(dst, sp10, k)
	}
	// Otherwise s·10^k or (s+1)·10^k, at least one of which is inside: the
	// one inside, or the nearer, or the even one on a tie.
	t := s + 1
	uin, win := vbl+out <= s<<2, t<<2+out <= vbr
	if uin == win {
		mid := (s + t) << 1
		win = vb > mid || vb == mid && s&1 != 0
	}
	if win {
		s = t
	}
	return appendDecimalF(dst, s, k)
}

// digits2 holds "00" … "99".
const digits2 = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// appendDecimalF appends d·10^e (d > 0) in %f form: d's digits without
// its trailing zeros, padded with zeros up to the decimal point or after
// "0." as the exponent asks, with no exponent and no trailing zero.
func appendDecimalF(dst []byte, d uint64, e int) []byte {
	for d%100_000_000 == 0 {
		d /= 100_000_000
		e += 8
	}
	if d%10_000 == 0 {
		d /= 10_000
		e += 4
	}
	if d%100 == 0 {
		d /= 100
		e += 2
	}
	if d%10 == 0 {
		d /= 10
		e++
	}
	var buf [20]byte
	i := len(buf)
	for d >= 100 {
		r := d % 100
		d /= 100
		i -= 2
		buf[i], buf[i+1] = digits2[2*r], digits2[2*r+1]
	}
	if d >= 10 {
		i -= 2
		buf[i], buf[i+1] = digits2[2*d], digits2[2*d+1]
	} else {
		i--
		buf[i] = byte('0' + d)
	}
	digits := buf[i:]
	switch point := len(digits) + e; {
	case e >= 0:
		dst = append(dst, digits...)
		for ; e > 0; e-- {
			dst = append(dst, '0')
		}
	case point > 0:
		dst = append(dst, digits[:point]...)
		dst = append(dst, '.')
		dst = append(dst, digits[point:]...)
	default:
		dst = append(dst, '0', '.')
		for ; point < 0; point++ {
			dst = append(dst, '0')
		}
		dst = append(dst, digits...)
	}
	return dst
}
