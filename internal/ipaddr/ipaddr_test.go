package ipaddr

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseStringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		got, err := Parse(a.String())
		return err == nil && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseValid(t *testing.T) {
	cases := map[string]Addr{
		"0.0.0.0":         0,
		"255.255.255.255": 0xFFFFFFFF,
		"192.0.2.7":       FromOctets(192, 0, 2, 7),
		"10.1.2.3":        FromOctets(10, 1, 2, 3),
	}
	for s, want := range cases {
		got, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("Parse(%q) = %v, want %v", s, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Parse("198.51.100.254"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Parse allocates %.1f times on success, want 0", n)
	}
}

func TestParseInvalid(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "01.2.3.4", "-1.2.3.4", "1..2.3"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

// checkParse holds AppendError, over a string and over bytes, to Parse's
// error text for s, and returns what Parse answers.
func checkParse(t *testing.T, s string) (Addr, error) {
	t.Helper()
	a, err := Parse(s)
	want := ""
	if err != nil {
		want = err.Error()
	}
	if got, gotB := string(AppendError(nil, s)), string(AppendError(nil, []byte(s))); got != want || gotB != want {
		t.Fatalf("AppendError(%q) = %q, over bytes %q; Parse's error says %q", s, got, gotB, want)
	}
	return a, err
}

// TestAppendErrorMatchesFmt holds AppendError, over a string and over bytes,
// to the fmt.Errorf wording parseTwoPass keeps, on every FuzzParse seed and
// on texts %q must escape: quotes, backslashes, control bytes, invalid
// UTF-8, printable and unprintable runes, and a text too long for a stack
// buffer. TestParseMatchesTwoPass covers the grammar sweep through
// checkParse. Writing a short rejected item's message into a buffer with
// room allocates nothing.
func TestAppendErrorMatchesFmt(t *testing.T) {
	texts := append([]string{
		`"1.2.3.4"`, `1.2.3.\4`, "1.2\x01.3.4", "1.2.3.4\t", "\x7f1.2.3.4", "1.2.\xff.4", "1.\xc3\xa9.3.4", "é", "\u2028",
		"1.2.3.4\u200b", "\U0001F600.1.1.1", strings.Repeat("9", 40), strings.Repeat("1.", 30) + "1", "1.2.3." + strings.Repeat("x", 50),
	}, parseSeeds...)
	for _, s := range texts {
		want := ""
		if _, err := parseTwoPass(s); err != nil {
			want = err.Error()
		}
		if got, gotB := string(AppendError(nil, s)), string(AppendError(nil, []byte(s))); got != want || gotB != want {
			t.Errorf("AppendError(%q) = %q, over bytes %q; fmt.Errorf wrote %q", s, got, gotB, want)
		}
	}
	in, buf := []byte("banana"), make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = AppendError(buf[:0], in) }); n != 0 {
		t.Errorf("AppendError of a short rejected text allocates %.1f times, want 0", n)
	}
}

// parseSeeds are shapes a dotted-quad parser gets wrong: near misses of the
// grammar and everything net/netip accepts that this package must not.
var parseSeeds = []string{
	"", "0.0.0.0", "255.255.255.255", "192.0.2.7", "1.2.3", "1.2.3.4.5", "1.2.3.4.", ".1.2.3.4",
	"256.1.1.1", "1.2.3.1000", "a.b.c.d", "01.2.3.4", "1.2.3.04", "00.0.0.0", "-1.2.3.4", "+1.2.3.4",
	"1..2.3", " 1.2.3.4", "1.2.3.4 ", "1.2.3.4\n", "1.2.3.4\x00", "１.2.3.4", "1.2.3.4%eth0", "0x1.2.3.4",
	"::", "::1", "2001:db8::1", "fe80::1%eth0", "::ffff:1.2.3.4", "::ffff:102:304", "1.2.3.4:80", "[::1]",
}

// FuzzParse runs Parse against net/netip.ParseAddr. The
// two must agree on every input except the one class this package refuses
// on purpose: anything netip reads as an IPv6 address — plain, with a zone,
// or an IPv4 address embedded in one ("::ffff:1.2.3.4") — since an Addr is
// 32 bits and a dataset key is an IPv4 /24. Every other disagreement — an
// input only one of them accepts, or one they read as different addresses —
// is a failure. Every address both read must come back from AppendText as
// netip.Addr.String spells it, which holds the octet table to netip.
//
// Run locally with:
//
//	go test -fuzz FuzzParse -fuzztime 30s ./internal/ipaddr
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := checkParse(t, s)
		want, wantErr := netip.ParseAddr(s)
		switch {
		case wantErr != nil:
			if err == nil {
				t.Fatalf("Parse(%q) = %v, netip refuses it: %v", s, got, wantErr)
			}
		case want.Is6():
			// IPv6, zoned or not, 4-in-6 included (Is4 is false for it).
			if err == nil {
				t.Fatalf("Parse(%q) = %v, netip reads the IPv6 address %v", s, got, want)
			}
		default:
			b := want.As4()
			if err != nil || got != FromOctets(b[0], b[1], b[2], b[3]) {
				t.Fatalf("Parse(%q) = (%v, %v), netip reads %v", s, got, err, want)
			}
			if txt := string(got.AppendText(nil)); txt != want.String() {
				t.Fatalf("AppendText of %q = %q, netip writes %q", s, txt, want.String())
			}
			if got.String() != s {
				t.Fatalf("Parse(%q) accepted a non-canonical spelling of %v", s, got)
			}
		}
	})
}

// parseTwoPass is the parser Parse replaced, kept as the grammar's
// reference: it cuts the text at each dot first and judges the part after.
func parseTwoPass(s string) (Addr, error) {
	var out uint32
	rest := s
	for i := 0; i < 4; i++ {
		part := rest
		dot := strings.IndexByte(rest, '.')
		if i < 3 {
			if dot < 0 {
				return 0, fmt.Errorf("ipaddr: %q is not dotted quad", s)
			}
			part, rest = rest[:dot], rest[dot+1:]
		} else if dot >= 0 {
			return 0, fmt.Errorf("ipaddr: %q is not dotted quad", s)
		}
		v, ok := octetTwoPass(part)
		if !ok {
			return 0, fmt.Errorf("ipaddr: bad octet %q in %q", part, s)
		}
		out = out<<8 | v
	}
	return Addr(out), nil
}

// octetTwoPass judges one whole part: 1–3 digits, no leading zero (except
// "0" itself), value <= 255.
func octetTwoPass(p string) (uint32, bool) {
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
	return v, v <= 255
}

// TestParseMatchesTwoPass holds the one-pass parser to parseTwoPass —
// address, or error text — and Scan to both, on every octet 0–999 spelled
// with 0–2 leading zeros and the empty part, in every position of texts
// of 3 to 5 parts, bare and with a leading or a trailing dot.
func TestParseMatchesTwoPass(t *testing.T) {
	var octets []string
	for v := 0; v < 1000; v++ {
		d := strconv.Itoa(v)
		octets = append(octets, d, "0"+d, "00"+d)
	}
	octets = append(octets, "")
	fill := []string{"0", "7", "255"}
	checked := 0
	for parts := 3; parts <= 5; parts++ {
		for pos := 0; pos < parts; pos++ {
			for _, o := range octets {
				for _, f := range fill {
					p := make([]string, parts)
					for i := range p {
						p[i] = f
					}
					p[pos] = o
					base := strings.Join(p, ".")
					for _, s := range []string{base, "." + base, base + "."} {
						want, wantErr := parseTwoPass(s)
						got, err := checkParse(t, s)
						if got != want || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
							t.Fatalf("Parse(%q) = (%v, %v), the two-pass parser says (%v, %v)", s, got, err, want, wantErr)
						}
						// A /batch item is followed by its closing quote.
						a, n, ok := Scan([]byte(s + `"`))
						if whole := ok && n == len(s); whole != (err == nil) || (whole && a != want) {
							t.Fatalf("Scan(%q) = (%v, %d, %v), Parse says (%v, %v)", s+`"`, a, n, ok, want, err)
						}
						checked++
					}
				}
			}
		}
	}
	t.Logf("%d texts", checked)
}

func BenchmarkParse(b *testing.B) {
	in := []string{"198.51.100.254", "10.0.0.7", "255.255.255.255", "1.2.3.4"}
	for i := 0; i < b.N; i++ {
		if _, err := Parse(in[i&3]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendText(b *testing.B) {
	in := []Addr{MustParse("198.51.100.254"), MustParse("10.0.0.7"), MustParse("255.255.255.255"), MustParse("1.2.3.4")}
	buf := make([]byte, 0, 16)
	for i := 0; i < b.N; i++ {
		buf = in[i&3].AppendText(buf[:0])
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on invalid input")
		}
	}()
	MustParse("not-an-ip")
}

func TestOctets(t *testing.T) {
	a, b, c, d := FromOctets(192, 168, 3, 44).Octets()
	if a != 192 || b != 168 || c != 3 || d != 44 {
		t.Errorf("Octets = %d.%d.%d.%d", a, b, c, d)
	}
}

func TestPrefix24(t *testing.T) {
	a := MustParse("192.0.2.77")
	p := Prefix24Of(a)
	if p.String() != "192.0.2.0/24" {
		t.Errorf("prefix = %s", p)
	}
	if !p.Contains(a) {
		t.Error("prefix should contain its member")
	}
	if p.Contains(MustParse("192.0.3.77")) {
		t.Error("prefix should not contain neighbour /24")
	}
	if p.Addr(9) != MustParse("192.0.2.9") {
		t.Errorf("Addr(9) = %v", p.Addr(9))
	}
}

func TestSamePrefix24Property(t *testing.T) {
	f := func(v uint32, h1, h2 byte) bool {
		p := Prefix24(v >> 8)
		return SamePrefix24(p.Addr(h1), p.Addr(h2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocatorUnique(t *testing.T) {
	al := NewAllocator()
	seen := make(map[Prefix24]bool)
	for i := 0; i < 5000; i++ {
		p := al.NextPrefix()
		if seen[p] {
			t.Fatalf("duplicate prefix %s at %d", p, i)
		}
		seen[p] = true
	}
}

func TestAllocatorStartsAtTen(t *testing.T) {
	al := NewAllocator()
	p := al.NextPrefix()
	if p.String() != "10.0.0.0/24" {
		t.Errorf("first prefix = %s, want 10.0.0.0/24", p)
	}
}
