package telemetry

import (
	"reflect"
	"testing"
)

func TestParseName(t *testing.T) {
	cases := []struct {
		in     string
		base   string
		labels []Label
	}{
		{"geoserve.hits", "geoserve.hits", nil},
		{"geoserve.status{code=200}", "geoserve.status", []Label{{"code", "200"}}},
		{"geoserve.status{code=200,plane=data}", "geoserve.status",
			[]Label{{"code", "200"}, {"plane", "data"}}},
		{"empty{}", "empty", nil},
		// Malformed blocks degrade to a verbatim base, never an error.
		{"bad{code}", "bad{code}", nil},
		{"bad{=x}", "bad{=x}", nil},
		{"unclosed{code=200", "unclosed{code=200", nil},
	}
	for _, c := range cases {
		base, labels := ParseName(c.in)
		if base != c.base || !reflect.DeepEqual(labels, c.labels) {
			t.Errorf("ParseName(%q) = %q %v, want %q %v", c.in, base, labels, c.base, c.labels)
		}
	}
}

func TestNameRoundTrip(t *testing.T) {
	n := Name("geoserve.status", Label{"code", "429"}, Label{"plane", "data"})
	if n != "geoserve.status{code=429,plane=data}" {
		t.Fatalf("Name = %q", n)
	}
	base, labels := ParseName(n)
	if base != "geoserve.status" || len(labels) != 2 || labels[0].Value != "429" || labels[1].Value != "data" {
		t.Fatalf("round trip broke: %q %v", base, labels)
	}
}
