package ipaddr

import (
	"net/netip"
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
}

func TestParseInvalid(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "01.2.3.4", "-1.2.3.4", "1..2.3"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

// checkParse holds Parse and ParseBytes to one answer for s — the address,
// or the same error text — and returns it.
func checkParse(t *testing.T, s string) (Addr, error) {
	t.Helper()
	a, err := Parse(s)
	b, errB := ParseBytes([]byte(s))
	if a != b || (err == nil) != (errB == nil) || (err != nil && err.Error() != errB.Error()) {
		t.Fatalf("Parse(%q) = (%v, %v) but ParseBytes = (%v, %v)", s, a, err, b, errB)
	}
	return a, err
}

// parseSeeds are shapes a dotted-quad parser gets wrong: near misses of the
// grammar and everything net/netip accepts that this package must not.
var parseSeeds = []string{
	"", "0.0.0.0", "255.255.255.255", "192.0.2.7", "1.2.3", "1.2.3.4.5", "1.2.3.4.", ".1.2.3.4",
	"256.1.1.1", "1.2.3.1000", "a.b.c.d", "01.2.3.4", "1.2.3.04", "00.0.0.0", "-1.2.3.4", "+1.2.3.4",
	"1..2.3", " 1.2.3.4", "1.2.3.4 ", "1.2.3.4\n", "1.2.3.4\x00", "１.2.3.4", "1.2.3.4%eth0", "0x1.2.3.4",
	"::", "::1", "2001:db8::1", "fe80::1%eth0", "::ffff:1.2.3.4", "::ffff:102:304", "1.2.3.4:80", "[::1]",
}

// TestParseBytesMatchesParse: the two entry points are one grammar with
// one error text, and the byte-slice one allocates nothing on success.
func TestParseBytesMatchesParse(t *testing.T) {
	for _, s := range parseSeeds {
		checkParse(t, s)
	}
	in := []byte("198.51.100.254")
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseBytes(in); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ParseBytes allocates %.1f times on success, want 0", n)
	}
}

// FuzzParse runs Parse (and ParseBytes) against net/netip.ParseAddr. The
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
	if al.Allocated() != 5000 {
		t.Errorf("Allocated = %d, want 5000", al.Allocated())
	}
}

func TestAllocatorStartsAtTen(t *testing.T) {
	al := NewAllocator()
	p := al.NextPrefix()
	if p.String() != "10.0.0.0/24" {
		t.Errorf("first prefix = %s, want 10.0.0.0/24", p)
	}
}
