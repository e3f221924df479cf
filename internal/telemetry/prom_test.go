package telemetry

import (
	"math"
	"testing"
)

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1:           "1",
		0.25:        "0.25",
		math.Inf(1): "+Inf",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
