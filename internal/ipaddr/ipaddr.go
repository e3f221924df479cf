// Package ipaddr provides a compact IPv4 address value type and the /24
// prefix arithmetic that the million scale paper's vantage-point selection
// algorithm depends on (representatives are chosen inside a target's /24).
package ipaddr

import (
	"fmt"
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
// empty parts, no leading zeros, no signs or spaces — and the success
// path performs zero heap allocations (the serving hot path calls this
// per request).
func Parse(s string) (Addr, error) { return parse(s) }

// ParseBytes is Parse over a byte slice — same grammar, same error text —
// for callers that hold the text inside a larger buffer (a /batch request
// body) and must not copy it out to ask.
func ParseBytes(b []byte) (Addr, error) { return parse(b) }

func parse[S ~string | ~[]byte](s S) (Addr, error) {
	var out uint32
	rest := s
	for i := 0; i < 4; i++ {
		part := rest
		dot := indexDot(rest)
		if i < 3 {
			if dot < 0 {
				return 0, fmt.Errorf("ipaddr: %q is not dotted quad", s)
			}
			part, rest = rest[:dot], rest[dot+1:]
		} else if dot >= 0 {
			return 0, fmt.Errorf("ipaddr: %q is not dotted quad", s)
		}
		v, ok := parseOctet(part)
		if !ok {
			return 0, fmt.Errorf("ipaddr: bad octet %q in %q", part, s)
		}
		out = out<<8 | uint32(v)
	}
	return Addr(out), nil
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

// parseOctet parses one decimal octet with the package's strict rules:
// 1–3 digits only, no leading zero (except "0" itself), value <= 255.
func parseOctet[S ~string | ~[]byte](p S) (uint32, bool) {
	if len(p) == 0 || len(p) > 3 || (len(p) > 1 && p[0] == '0') {
		return 0, false
	}
	var v uint32
	for i := 0; i < len(p); i++ {
		c := p[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint32(c-'0')
	}
	if v > 255 {
		return 0, false
	}
	return v, true
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
// zero-allocation renderer the serving hot path encodes with.
func (a Addr) AppendText(dst []byte) []byte {
	dst = appendOctet(dst, byte(a>>24))
	dst = append(dst, '.')
	dst = appendOctet(dst, byte(a>>16))
	dst = append(dst, '.')
	dst = appendOctet(dst, byte(a>>8))
	dst = append(dst, '.')
	return appendOctet(dst, byte(a))
}

// octetText[b] holds b's decimal digits in its first octetText[b][3] bytes.
var octetText = func() (t [256][4]byte) {
	for b := range t {
		n := copy(t[b][:3], strconv.Itoa(b))
		t[b][3] = byte(n)
	}
	return
}()

func appendOctet(dst []byte, b byte) []byte {
	o := &octetText[b]
	return append(dst, o[:o[3]]...)
}

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
