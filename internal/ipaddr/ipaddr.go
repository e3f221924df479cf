// Package ipaddr provides a compact IPv4 address value type and the /24
// prefix arithmetic that the million scale paper's vantage-point selection
// algorithm depends on (representatives are chosen inside a target's /24).
package ipaddr

import (
	"encoding/binary"
	"errors"
	"strconv"
)

// Addr is an IPv4 address stored as a big-endian 32-bit integer.
type Addr uint32

// FromOctets assembles an address from four octets.
func FromOctets(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Parse parses dotted-quad notation ("192.0.2.7"). The accepted
// grammar is strict — exactly four dot-separated decimal octets, no
// empty parts, no leading zeros, no signs or spaces — so the one text
// it accepts for an address is the one AppendText writes. The success
// path performs zero heap allocations (the serving hot path calls this
// per request).
func Parse(s string) (Addr, error) {
	a, part, start, n := scan(s)
	if n == len(s) && part == 3 && n > start {
		return a, nil
	}
	return 0, errors.New(string(appendError(nil, s, part, start)))
}

// Scan reads the address b starts with, for a caller that finds where its
// text ends as it reads it (a /batch body's quoted item): it stops at the
// first byte that cannot extend Parse's grammar and returns how many bytes
// it read. ok reports whether those n bytes are a whole address, so b is
// one exactly when ok and n == len(b). Scan never allocates.
func Scan(b []byte) (a Addr, n int, ok bool) {
	a, part, start, n := scan(b)
	return a, n, part == 3 && n > start
}

// AppendError appends to dst the text of the error Parse returns for s, and
// appends nothing when s is an address. A caller that only reports a
// rejected text (a /batch item) writes the message without an error value.
func AppendError[S ~string | ~[]byte](dst []byte, s S) []byte {
	_, part, start, n := scan(s)
	if n == len(s) && part == 3 && n > start {
		return dst
	}
	return appendError(dst, s, part, start)
}

// appendError is the one spelling of a parse error, for a text whose scan
// stopped in part at start short of an address. The message names what a
// parser reading whole parts would have found first: part's structure (a
// dot where there must be one, none after the fourth), then the octet
// itself. Texts are quoted as %q quotes them.
func appendError[S ~string | ~[]byte](dst []byte, s S, part, start int) []byte {
	rest := s[start:]
	dot := indexDot(rest)
	if (part < 3) == (dot < 0) {
		dst = strconv.AppendQuote(append(dst, "ipaddr: "...), string(s))
		return append(dst, " is not dotted quad"...)
	}
	if dot >= 0 {
		rest = rest[:dot]
	}
	dst = strconv.AppendQuote(append(dst, "ipaddr: bad octet "...), string(rest))
	return strconv.AppendQuote(append(dst, " in "...), string(s))
}

// scan is the one pass every entry point parses with. It reads s up to the
// first byte that breaks the grammar — anything but a digit or a dot, an
// empty part, a fifth part, a leading zero, an octet past 255 — and returns
// the octets read so far as an address, the index of the part it stopped
// in, the offset where that part starts, and the offset where it stopped.
// s[:end] is an address when the stop is in the fourth part and that part
// has a digit.
func scan[S ~string | ~[]byte](s S) (a Addr, part, start, end int) {
	var v uint32
	for ; end < len(s); end++ {
		c := s[end]
		if c == '.' {
			if end == start || part == 3 {
				break
			}
			a, v = a<<8|Addr(v), 0
			part, start = part+1, end+1
			continue
		}
		d := uint32(c) - '0'
		if d > 9 || (v == 0 && end > start) {
			break
		}
		if d += v * 10; d > 255 {
			break
		}
		v = d
	}
	return a<<8 | Addr(v), part, start, end
}

// indexDot is strings.IndexByte(s, '.') for either text type; an address is
// at most fifteen bytes, so the plain loop is the fast one.
func indexDot[S ~string | ~[]byte](s S) int {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(s string) Addr {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the address in dotted-quad notation.
func (a Addr) String() string {
	return string(a.AppendText(make([]byte, 0, 15)))
}

// AppendText appends the dotted-quad rendering to dst and returns the
// extended slice, allocating only if dst lacks capacity — the
// zero-allocation renderer the serving hot path encodes with. Each octet is
// one fixed-size store of its packed text into a stack buffer, and the
// buffer one append.
func (a Addr) AppendText(dst []byte) []byte {
	var buf [24]byte
	n := 0
	for shift := 24; shift >= 0; shift -= 8 {
		o := octetText[byte(a>>shift)]
		binary.LittleEndian.PutUint64(buf[n:], o)
		n += int(o >> 56)
	}
	return append(dst, buf[:n-1]...)
}

// octetText[b] packs b's decimal digits and a dot into its low bytes, first
// digit lowest, and their count into its top byte.
var octetText = func() (t [256]uint64) {
	for b := range t {
		txt := strconv.Itoa(b) + "."
		for i := len(txt) - 1; i >= 0; i-- {
			t[b] = t[b]<<8 | uint64(txt[i])
		}
		t[b] |= uint64(len(txt)) << 56
	}
	return
}()

// Octets returns the four octets of the address.
func (a Addr) Octets() (byte, byte, byte, byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// Prefix24 is a /24 network, identified by its 24 leading bits.
type Prefix24 uint32

// Prefix24Of returns the /24 containing the address.
func Prefix24Of(a Addr) Prefix24 { return Prefix24(uint32(a) >> 8) }

// Addr returns the host'th address inside the prefix (host in 0..255).
func (p Prefix24) Addr(host byte) Addr { return Addr(uint32(p)<<8 | uint32(host)) }

// Contains reports whether the address lies inside the prefix.
func (p Prefix24) Contains(a Addr) bool { return Prefix24Of(a) == p }

// String renders the prefix in CIDR notation ("192.0.2.0/24").
func (p Prefix24) String() string { return string(p.AppendText(make([]byte, 0, 18))) }

// AppendText appends the CIDR rendering to dst without allocating
// (beyond dst growth).
func (p Prefix24) AppendText(dst []byte) []byte {
	return append(p.Addr(0).AppendText(dst), "/24"...)
}

// SamePrefix24 reports whether two addresses share a /24.
func SamePrefix24(a, b Addr) bool { return Prefix24Of(a) == Prefix24Of(b) }

// Allocator hands out non-overlapping /24 prefixes from the 10.0.0.0/8 and
// 100.64.0.0/10 style private/shared planes used by the simulator's address
// plan. It is not safe for concurrent use.
type Allocator struct {
	next uint32 // next /24 index
}

// NewAllocator returns an allocator starting at base 10.0.0.0/24.
func NewAllocator() *Allocator {
	return &Allocator{next: uint32(FromOctets(10, 0, 0, 0)) >> 8}
}

// NextPrefix returns a fresh /24 no previous call has returned.
func (al *Allocator) NextPrefix() Prefix24 {
	p := Prefix24(al.next)
	al.next++
	return p
}
