package serve

import (
	"net/url"
	"strings"
	"testing"
)

// FuzzQueryIP: the /lookup query reader never panics, and on a query with
// nothing to unescape it returns the text after "ip=" in the first
// &-segment that starts with "ip=" ("" when none does). A query that does
// carry '%' or '+' reads that same segment, decoded when it decodes.
func FuzzQueryIP(f *testing.F) {
	for _, q := range []string{
		"", "ip=64.0.0.7", "x=1&ip=64.0.0.7&ip=9.9.9.9", "ip=", "ip", "ipx=1&ip=1.2.3.4",
		"ip=1.2.3.4;x=1", "&&ip=%31.2.3.4", "ip=a+b", "ip=%zz&ip=1.1.1.1", "x=ip=1.2.3.4",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		got := QueryIP(q)
		want := ""
		for _, seg := range strings.Split(q, "&") {
			if v, ok := strings.CutPrefix(seg, "ip="); ok {
				want = v
				break
			}
		}
		if strings.ContainsAny(want, "%+") {
			if dec, err := url.QueryUnescape(want); err == nil {
				want = dec
			}
		}
		if got != want {
			t.Fatalf("QueryIP(%q) = %q, want %q", q, got, want)
		}
	})
}
